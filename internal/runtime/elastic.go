package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// runElastic is the recovery-enabled sibling of the plain worker pool:
// the mesh is stacked WithMetrics(WithHeartbeat(WithFaults(base))) so
// the fault plan *causes* crashes innermost, the heartbeat layer turns
// the resulting silence into detection evidence, and the outer meter
// keeps counting pure data-plane payloads. Workers train in
// barrier-delimited rounds under the recovery manager; failed rounds
// retry from in-memory snapshots, and scheduled returns re-admit nodes
// with a leader-served state transfer.
func runElastic(ctx context.Context, base transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset,
	cfg DistConfig, nodeGroup []int) (*DistResult, error) {

	rc := cfg.Recovery.withDefaults()
	inner := base
	if cfg.Faults != nil {
		inner = transport.WithFaults(inner, cfg.Faults)
	}
	hb := transport.WithHeartbeat(inner, rc.HeartbeatInterval, rc.HeartbeatTimeout, cfg.Metrics)
	var top transport.Mesh = hb
	if cfg.Metrics != nil {
		top = transport.WithMetrics(top, cfg.Metrics)
	}

	res := &DistResult{EpochAccuracies: make([]float64, cfg.Epochs)}
	var resMu sync.Mutex
	var wg sync.WaitGroup
	var (
		errMu      sync.Mutex
		workerErrs []error
		closeOnce  sync.Once
	)
	mgr := newRecoveryManager(&cfg, rc, hb, nodeGroup)
	// Manager first so supervision stops before the dying mesh turns
	// every silence into a spurious detection; mesh second to unblock
	// workers stuck in collectives.
	teardown := func() {
		closeOnce.Do(func() {
			mgr.close()
			top.Close()
		})
	}
	fail := func(id int, err error) {
		errMu.Lock()
		workerErrs = append(workerErrs, fmt.Errorf("worker %d: %w", id, err))
		errMu.Unlock()
		cfg.Metrics.Counter("runtime.worker.errors").Inc()
		cfg.Metrics.Emit(metrics.Event{Kind: metrics.KindWorkerError, Node: id, Detail: err.Error()})
		teardown()
	}
	stop := context.AfterFunc(ctx, teardown)
	defer stop()

	launch := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &elasticWorker{
				mgr:   mgr,
				node:  top.Node(id),
				spec:  spec,
				train: train,
				val:   val,
				cfg:   &cfg,
				group: nodeGroup[id],
				res:   res,
				resMu: &resMu,
			}
			if err := w.run(); err != nil {
				fail(id, err)
			}
		}()
	}
	mgr.spawnFn = launch
	mgr.start()
	for id, g := range nodeGroup {
		if g >= 0 {
			launch(id)
		}
	}
	wg.Wait()
	teardown()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(workerErrs) > 0 {
		return nil, errors.Join(workerErrs...)
	}
	if !mgr.completed() {
		return nil, fmt.Errorf("runtime: elastic run ended before completing %d epochs (all workers gone)", cfg.Epochs)
	}
	stats := mgr.snapshot()
	res.Recovery = &stats
	return res, nil
}

// elasticSnap is a worker's in-memory snapshot of the training state
// at the start of an epoch: weights, batch-norm state, and optimizer
// velocities, all deep copies.
type elasticSnap struct {
	epoch   int
	weights []*tensor.Tensor
	state   []*tensor.Tensor
	vel     []*tensor.Tensor
}

func cloneSet(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func copySet(dst, src []*tensor.Tensor) {
	for i := range dst {
		dst[i].CopyFrom(src[i])
	}
}

// elasticWorker is one SoC's elastic life: rounds from the manager,
// snapshots between them, and the same collective protocol inside.
type elasticWorker struct {
	mgr        *recoveryManager
	node       transport.Node
	spec       *nn.Spec
	train, val *dataset.Dataset
	cfg        *DistConfig
	group      int
	res        *DistResult
	resMu      *sync.Mutex
}

// recoverableRoundErr reports whether a round failure should be
// retried (manager-driven abort or a declared-dead peer) rather than
// tearing the run down.
func recoverableRoundErr(err error) bool {
	return errors.Is(err, transport.ErrRoundAborted) || errors.Is(err, transport.ErrPeerDead)
}

func (w *elasticWorker) run() error {
	cfg := w.cfg
	me := w.node.ID()
	reg := cfg.Metrics
	ticker, _ := w.node.(transport.FaultTicker)
	tick := func(epoch, iter int) {
		if ticker != nil {
			ticker.TickFault(epoch, iter)
		}
	}
	cGradBytes := reg.Counter("runtime.gradsync.bytes")
	cIters := reg.Counter("runtime.iterations")
	cCrashes := reg.Counter("runtime.faults.crashes")
	cCkpts := reg.Counter("runtime.checkpoints.saved")

	// Identical init everywhere — a rejoiner rebuilds the same shell
	// and then overwrites it with the transferred state.
	model := w.spec.BuildMicro(tensor.NewRNG(cfg.Seed), w.train.Channels(), w.train.ImageSize(), w.train.Classes)
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	params := model.Params()
	weights := model.Weights()
	state := model.StateTensors()
	vel := opt.VelocityTensors(params)

	snaps := map[int]*elasticSnap{0: {epoch: 0, weights: cloneSet(weights), state: cloneSet(state), vel: cloneSet(vel)}}
	takeSnap := func(epoch int) {
		snaps[epoch] = &elasticSnap{epoch: epoch, weights: cloneSet(weights), state: cloneSet(state), vel: cloneSet(vel)}
		delete(snaps, epoch-2)
	}

	// shards as of the start of shardEpoch; realigned by folding the
	// deterministic reshuffle history when a retry or rejoin moves the
	// round cursor off the incremental path.
	shards := w.train.ShardIID(len(cfg.Groups), cfg.Seed+1)
	shardEpoch := 0
	alignShards := func(epoch int) {
		if shardEpoch == epoch {
			return
		}
		shards = w.train.ShardIID(len(cfg.Groups), cfg.Seed+1)
		for k := 0; k < epoch; k++ {
			shards = dataset.Reshuffle(shards, cfg.Seed+uint64(1000+k))
		}
		shardEpoch = epoch
	}

	var gradFlat, syncFlat []float32
	var last *roundInfo
	var lastErr error

	for {
		round, err := w.mgr.next(me, last, lastErr)
		if err != nil {
			return err
		}
		if round == nil {
			return nil
		}
		last, lastErr = round, nil
		epoch := round.epoch
		alignShards(epoch)

		_, joiningThisRound := round.joiners[me]
		if round.restore && !joiningThisRound {
			// Joiners skip the rollback: their state arrives by transfer
			// below, already positioned at the round's epoch.
			snap := snaps[epoch]
			if snap == nil {
				return fmt.Errorf("runtime: worker %d has no snapshot for epoch %d retry", me, epoch)
			}
			copySet(weights, snap.weights)
			copySet(state, snap.state)
			copySet(vel, snap.vel)
		}

		// Rejoin handshake: the donor ships its epoch-start state
		// (weights + batch-norm state + optimizer velocities + epoch
		// cursor) over the Checkpoint wire encoding; the joiner
		// installs it before touching a batch.
		if donor, ok := round.joiners[me]; ok {
			if err := w.receiveState(round, donor, weights, state, vel); err != nil {
				if recoverableRoundErr(err) {
					lastErr = err
					continue
				}
				return err
			}
			takeSnap(epoch)
		}
		for _, joiner := range round.donees(me) {
			blob := (&core.Checkpoint{
				Epoch:   epoch,
				Weights: weights,
				State:   append(append([]*tensor.Tensor{}, state...), vel...),
			}).Bytes()
			if err := w.node.Send(joiner, blob); err != nil {
				if recoverableRoundErr(err) {
					lastErr = err
					break
				}
				return err
			}
			w.mgr.addTransferBytes(int64(len(blob)))
		}
		if lastErr != nil {
			continue
		}

		err = w.runRound(round, model, opt, params, shards[w.group], weights, state, &gradFlat, &syncFlat,
			tick, cGradBytes, cIters, cCkpts)
		switch {
		case err == errSelfCrash:
			cCrashes.Inc()
			return nil // injected preemption: clean observed-by-peers exit
		case err == nil:
			shards = dataset.Reshuffle(shards, cfg.Seed+uint64(1000+epoch))
			shardEpoch = epoch + 1
			takeSnap(epoch + 1)
		case recoverableRoundErr(err):
			lastErr = err
		default:
			return err
		}
	}
}

// errSelfCrash marks the worker's own injected preemption point: the
// scheduler told this SoC to yield, which is self-knowledge, not
// plan-peeking — peers still learn of it only through lost heartbeats.
var errSelfCrash = errors.New("runtime: self preemption")

// classify turns a transport error into the worker's fate: the
// worker's own injected crash maps to errSelfCrash, everything else
// passes through.
func (w *elasticWorker) classify(err error, epoch, iter int) error {
	if errors.Is(err, transport.ErrInjectedCrash) {
		w.cfg.Metrics.Emit(metrics.Event{Kind: metrics.KindFault, Epoch: epoch, Iter: iter, Node: w.node.ID(), Detail: "crash"})
		return errSelfCrash
	}
	return err
}

// receiveState installs a donor's snapshot into the local model.
func (w *elasticWorker) receiveState(round *roundInfo, donor int, weights, state, vel []*tensor.Tensor) error {
	blob, err := w.node.Recv(donor)
	if err != nil {
		return err
	}
	cp, err := core.ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("runtime: decoding transferred state: %w", err)
	}
	if cp.Epoch != round.epoch {
		return fmt.Errorf("runtime: transferred state is for epoch %d, want %d", cp.Epoch, round.epoch)
	}
	if len(cp.Weights) != len(weights) || len(cp.State) != len(state)+len(vel) {
		return fmt.Errorf("runtime: transferred state shape mismatch (%d/%d tensors, want %d/%d)",
			len(cp.Weights), len(cp.State), len(weights), len(state)+len(vel))
	}
	copySet(weights, cp.Weights)
	copySet(state, cp.State[:len(state)])
	copySet(vel, cp.State[len(state):])
	return nil
}

// runRound executes one epoch under a frozen membership view: the
// proportional batch split and gradient scaling use the round's live
// member list, so a re-admitted node re-expands the split at exactly
// this boundary.
func (w *elasticWorker) runRound(round *roundInfo, model *nn.Sequential, opt *nn.SGD, params []*nn.Param,
	shard *dataset.Dataset, weights, state []*tensor.Tensor, gradFlat, syncFlat *[]float32,
	tick func(int, int), cGradBytes, cIters, cCkpts *metrics.Counter) error {

	cfg := w.cfg
	me := w.node.ID()
	reg := cfg.Metrics
	epoch := round.epoch
	lv := round.liveByGroup[w.group]
	rank := rankOf(me, lv)
	if rank < 0 {
		return fmt.Errorf("runtime: worker %d missing from its round membership", me)
	}
	epochSpan := reg.BeginSpan("epoch", "worker", me)
	defer epochSpan.End()

	selfCrashed := func(e, i int) bool { return cfg.Faults.CrashedAt(me, e, i) }

	it := dataset.NewBatchIterator(shard, cfg.GlobalBatch, cfg.Seed+uint64(100+epoch))
	iters := it.BatchesPerEpoch()
	for i := 0; i < iters; i++ {
		tick(epoch, i)
		if selfCrashed(epoch, i) {
			reg.Emit(metrics.Event{Kind: metrics.KindFault, Epoch: epoch, Iter: i, Node: me, Detail: "crash"})
			return errSelfCrash
		}
		iterSpan := reg.BeginSpan("iter", "worker", me)
		x, labels := it.Next()
		n := x.Shape[0]
		lo := rank * n / len(lv)
		hi := (rank + 1) * n / len(lv)
		model.ZeroGrad()
		if hi > lo {
			xm := tensor.Rows(x, lo, hi)
			logits := model.Forward(xm, true)
			_, g := nn.SoftmaxCrossEntropy(logits, labels[lo:hi])
			model.Backward(g)
			scale := float32(hi-lo) * float32(len(lv)) / float32(n)
			for _, gr := range model.Grads() {
				tensor.Scale(scale, gr)
			}
		}
		*gradFlat = flattenInto(*gradFlat, model.Grads())
		flat := *gradFlat
		if len(lv) > 1 {
			cGradBytes.Add(int64(4 * len(flat)))
		}
		if err := RingAllReduceAverage(w.node, lv, flat); err != nil {
			iterSpan.End()
			return w.classify(err, epoch, i)
		}
		unflatten(flat, model.Grads())
		opt.Step(params)
		cIters.Inc()
		iterSpan.End()
	}

	tick(epoch, transport.IterEpochEnd)
	if selfCrashed(epoch, transport.IterEpochEnd) {
		reg.Emit(metrics.Event{Kind: metrics.KindFault, Epoch: epoch, Iter: transport.IterEpochEnd, Node: me, Detail: "crash"})
		return errSelfCrash
	}

	// Delayed aggregation over the round's frozen leader ring, then
	// the intra-group broadcast.
	sync := append(append([]*tensor.Tensor{}, weights...), state...)
	*syncFlat = flattenInto(*syncFlat, sync)
	flat := *syncFlat
	if me == lv[0] {
		if err := RingAllReduceAverage(w.node, round.leaders, flat); err != nil {
			return w.classify(err, epoch, transport.IterEpochEnd)
		}
	}
	if err := Broadcast(w.node, lv, lv[0], flat); err != nil {
		return w.classify(err, epoch, transport.IterEpochEnd)
	}
	unflatten(flat, sync)

	if me == round.global {
		acc := accuracyOn(model, w.val)
		w.resMu.Lock()
		w.res.EpochAccuracies[epoch] = acc
		if epoch == cfg.Epochs-1 {
			w.res.Final = model
		}
		w.resMu.Unlock()
		reg.ObserveEpoch(epoch, acc, 0)
		if cfg.EpochEnd != nil {
			cfg.EpochEnd(epoch, acc)
		}
		if cfg.Checkpoints != nil {
			every := cfg.CheckpointEvery
			if every <= 0 {
				every = 1
			}
			if (epoch+1)%every == 0 || epoch == cfg.Epochs-1 {
				cp := &core.Checkpoint{Epoch: epoch + 1, Weights: weights, State: state}
				if err := cfg.Checkpoints.Save(cp); err != nil {
					return fmt.Errorf("runtime: auto-checkpoint at epoch %d: %w", epoch, err)
				}
				cCkpts.Inc()
			}
		}
	}
	return nil
}
