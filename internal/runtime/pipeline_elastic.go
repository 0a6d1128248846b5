package runtime

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/transport"
)

// Elastic pipeline recovery. The pipeline track's failure domain is
// wider than data parallelism's — losing one stage kills its whole
// group — so recovery is plan-level: workers train in barrier-delimited
// rounds (one epoch per round) under a manager; a heartbeat detector
// turns silence into membership changes; and at the next boundary the
// manager re-prices the situation, choosing between degrading the
// current plan in place (drop the broken groups) and re-invoking
// plan.Search restricted to the survivors (plan.Options.Nodes). Both
// candidates are priced by the same Pricer the original search used, so
// the adopted plan's EpochSeconds stays exactly the executed epoch's
// predicted cost — the PR 9 invariant survives recovery.
//
// State moves with the plan: every epoch ends with the leader-served
// full-model sync (pipeWorker.syncFullModel), so each placed node holds
// the aggregated model at boundaries and any survivor can seed a new
// placement. Nodes entering a placement without boundary state
// (newcomers) receive it from the lowest-numbered stateful survivor
// over the Checkpoint wire encoding before training. Optimizer
// velocities cannot cross a changed stage cut — a re-plan restarts
// momentum from zero (degrade-in-place keeps it: the cuts and stage
// indices are unchanged).

// ReplanEpisode records one replan-vs-degrade decision the elastic
// pipeline manager took after a membership change. Episodes are
// committed when the adopting round's epoch completes; a superseded
// decision (another failure before the epoch ever committed) is
// replaced, not recorded.
type ReplanEpisode struct {
	// Epoch is the round the new plan first ran.
	Epoch int `json:"epoch"`
	// Trigger is the membership change: "crash", "resize", or "rejoin".
	Trigger string `json:"trigger"`
	// Decision is "replan" (the fresh search on the survivors priced
	// better) or "degrade" (the restricted current plan priced no
	// worse; ties keep the incumbent to preserve momentum).
	Decision string `json:"decision"`
	// OldPlan and NewPlan are the compact Plan.String() forms.
	OldPlan string `json:"old_plan"`
	NewPlan string `json:"new_plan"`
	// PredictedEpochSeconds is the adopted plan's EpochSeconds at
	// decision time; ExecutedEpochSeconds re-prices the same plan with
	// the shared Pricer when its epoch commits. They are exactly equal
	// — prediction and execution share one formula.
	PredictedEpochSeconds float64 `json:"predicted_epoch_seconds"`
	ExecutedEpochSeconds  float64 `json:"executed_epoch_seconds"`
	// DetectToResumeSeconds is the wall-clock gap between detecting the
	// membership change and releasing the adopting round.
	DetectToResumeSeconds float64 `json:"detect_to_resume_seconds"`
}

// runElasticPipeline is the recovery-enabled pipeline pool: mesh
// stacked WithMetrics(WithHeartbeat(WithFaults(base))) like the
// data-parallel elastic track, one worker goroutine per mesh node —
// unplaced nodes park at the barrier as warm spares the heartbeat layer
// keeps observable — and a manager that rolls failed rounds back to
// start-of-epoch snapshots and re-plans on membership changes.
func runElasticPipeline(ctx context.Context, base transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset,
	cfg PipelineConfig) (*DistResult, error) {

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

	popts, err := pipePlannerOptions(&cfg, spec, base.Size(), train)
	if err != nil {
		return nil, err
	}

	res := &DistResult{EpochAccuracies: make([]float64, cfg.Epochs)}
	var resMu sync.Mutex
	var wg sync.WaitGroup
	var (
		errMu      sync.Mutex
		workerErrs []error
		closeOnce  sync.Once
	)
	mgr := newPipeManager(&cfg, rc, hb, popts, base.Size())
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
		workerErrs = append(workerErrs, fmt.Errorf("stage worker %d: %w", id, err))
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
			w := &elasticPipeWorker{
				mgr:   mgr,
				pw:    newPipeWorker(top.Node(id), spec, train, val, &cfg, res, &resMu),
				snaps: make(map[int]*elasticSnap),
			}
			if err := w.run(); err != nil {
				fail(id, err)
			}
		}()
	}
	mgr.spawnFn = launch
	mgr.start()
	if cfg.Resizes != nil {
		mgr.watchResizes(cfg.Resizes)
	}
	for id := 0; id < base.Size(); id++ {
		launch(id)
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
		return nil, fmt.Errorf("runtime: elastic pipeline ended before completing %d epochs (all workers gone)", cfg.Epochs)
	}
	stats := mgr.snapshot()
	res.Recovery = &stats
	res.Replans = mgr.replanEpisodes()
	return res, nil
}

// pipePlannerOptions derives the search options the re-planner and its
// pricer share: cfg.Planner's, completed from the run's own spec, mesh
// size, batch, and sample count. The pricer built from these options
// prices degrade candidates and re-prices committed plans, so every
// number in a ReplanEpisode comes from one formula.
func pipePlannerOptions(cfg *PipelineConfig, spec *nn.Spec, numNodes int, train *dataset.Dataset) (autoplan.Options, error) {
	var o autoplan.Options
	if cfg.Planner != nil {
		o = *cfg.Planner
	}
	if o.Spec == nil {
		o.Spec = spec
	}
	if o.Cluster == nil && o.NumSoCs == 0 {
		o.NumSoCs = numNodes
	}
	eff := o.NumSoCs
	if o.Cluster != nil && eff == 0 {
		eff = o.Cluster.Config.NumSoCs
	}
	if eff != numNodes {
		return o, fmt.Errorf("runtime: Planner options target %d SoCs, mesh has %d nodes", eff, numNodes)
	}
	if o.GlobalBatch == 0 {
		o.GlobalBatch = cfg.GlobalBatch
	}
	if o.Samples == 0 {
		o.Samples = train.Len()
	}
	o.Only = autoplan.ModePipeline
	o.Nodes = nil
	return o, nil
}

// pipeRound is one released pipeline round: an (epoch, attempt) pair
// with a frozen plan and state-transfer assignment every participant
// shares.
type pipeRound struct {
	seq     int
	epoch   int
	attempt int
	// restore tells stateful participants to roll back to their epoch
	// snapshot before training (retry rounds).
	restore bool
	gen     uint32
	plan    *autoplan.Plan
	// pos maps each placed node to its (group, stage) position.
	pos map[int][2]int
	// newcomers are placed nodes without boundary state; they receive
	// it from source before training. source is -1 when empty. A
	// stateful unplaced source participates in the round solely to
	// serve and then returns to the barrier.
	newcomers map[int]bool
	source    int
	failed    bool
	committed bool
}

func (r *pipeRound) has(node int) bool {
	if _, ok := r.pos[node]; ok {
		return true
	}
	return node == r.source
}

// newcomerList returns the newcomers ascending, the source's send
// order.
func (r *pipeRound) newcomerList() []int {
	var out []int
	for x := range r.newcomers {
		out = append(out, x)
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// pipePositions maps each placed node of a plan to its (group, stage)
// position. Members beyond the pipeline depth hold no stage.
func pipePositions(p *autoplan.Plan) map[int][2]int {
	pos := make(map[int][2]int)
	d := p.Depth()
	for g, members := range p.Placement {
		for i := 0; i < d; i++ {
			pos[members[i]] = [2]int{g, i}
		}
	}
	return pos
}

// pipeManager supervises elastic pipeline workers: the round barrier,
// the heartbeat supervisor, tidal resize bookkeeping, and the
// replan-vs-degrade decision at every membership change.
type pipeManager struct {
	cfg      *PipelineConfig
	rc       RecoveryConfig
	hb       *transport.HeartbeatMesh
	reg      *metrics.Registry
	popts    autoplan.Options
	pricer   *autoplan.Pricer
	replanOK bool
	numNodes int
	spawnFn  func(node int)

	mu      sync.Mutex
	cond    *sync.Cond
	arrived map[int]bool
	dead    map[int]bool
	// reclaimed marks dead nodes taken by a tidal shrink; only these
	// are handed back on a grow.
	reclaimed map[int]bool
	// joining marks admitted returners not yet placed in a released
	// round; the supervisor gives them grace while their beats restart.
	joining map[int]bool
	// stateful is the set of nodes holding the last committed epoch
	// boundary's aggregated model (initially all: epoch 0 state is the
	// shared seed init). Placement minus stateful = newcomers.
	stateful map[int]bool
	// statefulPlan is the plan the stateful set last executed; a round
	// whose plan differs migrates (fresh stage views, reset momentum).
	statefulPlan *autoplan.Plan
	curPlan      *autoplan.Plan
	planDirty    bool
	trigger      string
	detectedAt   time.Time
	// pendingEpisode is the not-yet-committed decision; the round that
	// commits its epoch appends it to replans.
	pendingEpisode *ReplanEpisode
	replans        []ReplanEpisode
	rejoinUsed     []bool
	cur            *pipeRound
	relSeq         int
	pending        bool // a delayed retry release is armed
	fatal          error
	done           bool
	closed         bool
	stats          RecoveryStats

	stop chan struct{}
	wg   sync.WaitGroup
}

func newPipeManager(cfg *PipelineConfig, rc RecoveryConfig, hb *transport.HeartbeatMesh,
	popts autoplan.Options, numNodes int) *pipeManager {

	m := &pipeManager{
		cfg:          cfg,
		rc:           rc,
		hb:           hb,
		reg:          cfg.Metrics,
		popts:        popts,
		pricer:       autoplan.PricerFor(popts),
		replanOK:     cfg.Planner != nil,
		numNodes:     numNodes,
		arrived:      make(map[int]bool),
		dead:         make(map[int]bool),
		reclaimed:    make(map[int]bool),
		joining:      make(map[int]bool),
		stateful:     make(map[int]bool, numNodes),
		statefulPlan: cfg.Plan,
		curPlan:      cfg.Plan,
		rejoinUsed:   make([]bool, len(rc.Rejoins)),
		stop:         make(chan struct{}),
	}
	for x := 0; x < numNodes; x++ {
		m.stateful[x] = true
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// start launches the supervisor loop that polls the failure detector.
func (m *pipeManager) start() {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		period := m.rc.HeartbeatTimeout / 4
		if period < m.rc.HeartbeatInterval {
			period = m.rc.HeartbeatInterval
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			m.superviseOnce()
		}
	}()
}

// watchResizes consumes tidal capacity targets until the channel or the
// manager closes.
func (m *pipeManager) watchResizes(ch <-chan int) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			select {
			case <-m.stop:
				return
			case target, ok := <-ch:
				if !ok {
					return
				}
				m.applyResize(target)
			}
		}
	}()
}

func (m *pipeManager) superviseOnce() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.done || m.fatal != nil {
		return
	}
	for x := 0; x < m.numNodes; x++ {
		if m.dead[x] {
			continue
		}
		// Admitted returners get grace until a round places them: they
		// were just revived and their first beats are still in flight.
		if m.joining[x] && (m.cur == nil || !m.cur.has(x)) {
			continue
		}
		if !m.hb.Alive(x) {
			m.declareDeadLocked(x)
		}
	}
	m.checkReadyLocked()
}

func (m *pipeManager) close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.stop)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

func (m *pipeManager) completed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.done
}

func (m *pipeManager) snapshot() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *pipeManager) replanEpisodes() []ReplanEpisode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ReplanEpisode(nil), m.replans...)
}

func (m *pipeManager) addTransferBytes(n int64) {
	m.mu.Lock()
	m.stats.StateTransferBytes += n
	m.mu.Unlock()
	m.reg.Counter("recovery.statetransfer.bytes").Add(n)
}

// next is the worker-facing barrier, the same contract as the
// data-parallel recoveryManager: report the last round's outcome, block
// until a newer round that includes this node releases. (nil, nil)
// means done or written out; unplaced spares simply keep waiting.
func (m *pipeManager) next(me int, last *pipeRound, lastErr error) (*pipeRound, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if last != nil && lastErr != nil {
		m.markFailedLocked(last, lastErr)
	}
	want := 1
	if last != nil {
		want = last.seq + 1
	}
	m.arrived[me] = true
	m.checkReadyLocked()
	for {
		switch {
		case m.fatal != nil:
			return nil, m.fatal
		case m.closed:
			return nil, fmt.Errorf("runtime: recovery manager closed: %w", transport.ErrMeshClosed)
		case m.done:
			return nil, nil
		case m.dead[me]:
			// Written out — detected dead or reclaimed by the tide. The
			// run continues without this worker.
			return nil, nil
		}
		if m.cur != nil && m.cur.seq >= want && m.cur.has(me) {
			return m.cur, nil
		}
		m.cond.Wait()
	}
}

// declareDeadLocked records a heartbeat detection: peers stop beating
// the corpse, the plan decision is re-opened if the corpse was placed,
// and the current round fails if the corpse was in it.
func (m *pipeManager) declareDeadLocked(x int) {
	if m.dead[x] {
		return
	}
	m.dead[x] = true
	delete(m.joining, x)
	m.stats.Detections++
	m.stats.MembershipEpoch++
	m.hb.MarkDead(x)
	m.reg.Counter("recovery.detections").Inc()
	m.reg.Gauge("recovery.membership.epoch").Set(float64(m.stats.MembershipEpoch))
	epoch := 0
	if m.cur != nil {
		epoch = m.cur.epoch
	}
	m.reg.Emit(metrics.Event{Kind: metrics.KindDetect, Epoch: epoch, Node: x, Detail: "missed heartbeats"})
	if _, placed := pipePositions(m.curPlan)[x]; placed {
		m.markPlanDirtyLocked("crash")
	}
	if m.cur != nil && !m.cur.failed && m.cur.has(x) {
		m.markFailedLocked(m.cur, fmt.Errorf("worker %d missed heartbeats", x))
	}
	m.cond.Broadcast()
}

// applyResize reconciles the usable fleet with a tidal capacity target:
// shrinks reclaim the highest-numbered usable SoCs, grows hand back the
// lowest-numbered reclaimed ones. Both re-open the plan decision.
func (m *pipeManager) applyResize(target int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.done || m.fatal != nil {
		return
	}
	if target < 0 {
		target = 0
	}
	if target > m.numNodes {
		target = m.numNodes
	}
	usable := m.numNodes - len(m.dead)
	for x := m.numNodes - 1; x >= 0 && usable > target; x-- {
		if !m.dead[x] {
			m.reclaimLocked(x)
			usable--
		}
	}
	for x := 0; x < m.numNodes && usable < target; x++ {
		if m.reclaimed[x] {
			m.admitLocked(x, "resize")
			usable++
		}
	}
	m.checkReadyLocked()
}

// reclaimLocked writes a node out for the tide: same mechanics as a
// detected death, but remembered so a grow can hand it back.
func (m *pipeManager) reclaimLocked(x int) {
	m.dead[x] = true
	m.reclaimed[x] = true
	delete(m.joining, x)
	m.stats.MembershipEpoch++
	m.hb.MarkDead(x)
	// Unlike a crashed node, a reclaimed one is still running and may be
	// parked in a Recv whose sender now fast-fails against it (ErrPeerDead);
	// markFailedLocked skips dead nodes, so interrupt it here to send it
	// back to the barrier, where next() writes it out.
	m.hb.Interrupt(x, transport.ErrRoundAborted)
	m.reg.Counter("recovery.reclaims").Inc()
	m.reg.Gauge("recovery.membership.epoch").Set(float64(m.stats.MembershipEpoch))
	epoch := 0
	if m.cur != nil {
		epoch = m.cur.epoch
	}
	m.reg.Emit(metrics.Event{Kind: metrics.KindResize, Epoch: epoch, Node: x, Detail: "reclaimed"})
	if _, placed := pipePositions(m.curPlan)[x]; placed {
		m.markPlanDirtyLocked("resize")
	}
	if m.cur != nil && !m.cur.failed && m.cur.has(x) {
		m.markFailedLocked(m.cur, fmt.Errorf("worker %d reclaimed by tide", x))
	}
	m.cond.Broadcast()
}

// admitLocked returns a dead node to the usable fleet: transports
// revived, a fresh worker goroutine spawned (its state is the seed
// init, so it re-enters placements as a newcomer), and the plan
// decision re-opened so the next boundary can use it.
func (m *pipeManager) admitLocked(x int, trigger string) {
	delete(m.dead, x)
	delete(m.reclaimed, x)
	m.joining[x] = true
	delete(m.stateful, x)
	m.stats.Rejoins++
	m.stats.MembershipEpoch++
	nextEpoch, _, _ := m.nextParams()
	if t, ok := m.hb.Node(x).(transport.FaultTicker); ok {
		// Any scripted crash window that took the node down has ended by
		// its return epoch; move its fault clock past it.
		t.TickFault(nextEpoch, 0)
	}
	m.hb.MarkAlive(x) // grace before first beats
	m.hb.ResetStreams(x)
	m.reg.Counter("recovery.rejoins").Inc()
	m.reg.Gauge("recovery.membership.epoch").Set(float64(m.stats.MembershipEpoch))
	m.reg.Emit(metrics.Event{Kind: metrics.KindRejoin, Epoch: nextEpoch, Node: x, Detail: trigger})
	m.markPlanDirtyLocked(trigger)
	if m.spawnFn != nil {
		m.spawnFn(x)
	}
}

func (m *pipeManager) markPlanDirtyLocked(trigger string) {
	if !m.planDirty {
		m.planDirty = true
		m.trigger = trigger
		m.detectedAt = time.Now()
	}
}

// markFailedLocked marks a round failed once, charges the retry budget,
// and interrupts the surviving participants so they unwind to the
// barrier.
func (m *pipeManager) markFailedLocked(r *pipeRound, cause error) {
	if r != m.cur || r.failed || m.closed || m.fatal != nil {
		return
	}
	r.failed = true
	for x := range r.pos {
		if !m.dead[x] {
			m.hb.Interrupt(x, transport.ErrRoundAborted)
		}
	}
	if r.source >= 0 && !m.dead[r.source] {
		m.hb.Interrupt(r.source, transport.ErrRoundAborted)
	}
	if r.attempt+1 > m.rc.MaxRetries {
		m.failLocked(fmt.Errorf("runtime: epoch %d retry budget exhausted after %d attempts: %w",
			r.epoch, r.attempt+1, cause))
		return
	}
	m.cond.Broadcast()
}

func (m *pipeManager) failLocked(err error) {
	if m.fatal == nil {
		m.fatal = err
	}
	m.cond.Broadcast()
}

func (m *pipeManager) nextParams() (epoch, attempt int, restore bool) {
	switch {
	case m.cur == nil:
		return 0, 0, false
	case m.cur.failed:
		return m.cur.epoch, m.cur.attempt + 1, true
	default:
		return m.cur.epoch + 1, 0, false
	}
}

// usableLocked lists the non-dead node IDs ascending — the fleet a
// re-plan may place.
func (m *pipeManager) usableLocked() []int {
	var out []int
	for x := 0; x < m.numNodes; x++ {
		if !m.dead[x] {
			out = append(out, x)
		}
	}
	return out
}

func (m *pipeManager) allExpectedArrivedLocked() bool {
	for x := 0; x < m.numNodes; x++ {
		if !m.dead[x] && !m.arrived[x] {
			return false
		}
	}
	return true
}

// commitLocked seals a successfully finished round: the placed set
// becomes the stateful set (each holds the epoch-end aggregated model),
// and a pending replan decision is stamped with its executed epoch
// seconds and recorded.
func (m *pipeManager) commitLocked(r *pipeRound) {
	if r.committed {
		return
	}
	r.committed = true
	m.statefulPlan = r.plan
	m.stateful = make(map[int]bool, len(r.pos))
	for x := range r.pos {
		m.stateful[x] = true
	}
	if m.pendingEpisode != nil {
		ep := *m.pendingEpisode
		ep.ExecutedEpochSeconds = m.pricer.EpochSeconds(r.plan, m.popts.Samples)
		m.replans = append(m.replans, ep)
		m.pendingEpisode = nil
	}
}

// decideLocked prices the two recovery candidates and picks the
// cheaper: degrade-in-place (the current plan minus every group that
// lost a stage) versus a fresh plan.Search restricted to the surviving
// fleet. Ties keep the degrade — same placement shape means surviving
// stages keep their optimizer momentum.
func (m *pipeManager) decideLocked(usable []int, epoch int) (*autoplan.Plan, string, error) {
	var degrade *autoplan.Plan
	d := m.curPlan.Depth()
	var keep [][]int
	for _, members := range m.curPlan.Placement {
		intact := true
		for i := 0; i < d; i++ {
			if m.dead[members[i]] {
				intact = false
				break
			}
		}
		if intact {
			keep = append(keep, members)
		}
	}
	if len(keep) > 0 {
		dp := *m.curPlan
		dp.Placement = keep
		dp.EpochSeconds = m.pricer.EpochSeconds(&dp, m.popts.Samples)
		degrade = &dp
	}
	var replan *autoplan.Plan
	if m.replanOK {
		o := m.popts
		o.Nodes = usable
		if p, err := autoplan.Search(o); err == nil {
			replan = p
		}
	}
	switch {
	case degrade == nil && replan == nil:
		return nil, "", fmt.Errorf("runtime: no viable pipeline plan at epoch %d on %d surviving SoCs", epoch, len(usable))
	case replan == nil:
		return degrade, "degrade", nil
	case degrade == nil:
		return replan, "replan", nil
	case replan.EpochSeconds < degrade.EpochSeconds:
		return replan, "replan", nil
	default:
		return degrade, "degrade", nil
	}
}

// samePipelinePlacement reports whether two plans place the same nodes
// at the same positions with the same cuts and schedule — i.e. adopting
// b over a changes nothing at runtime.
func samePipelinePlacement(a, b *autoplan.Plan) bool {
	if a.MicroBatches != b.MicroBatches || len(a.Placement) != len(b.Placement) || len(a.Stages) != len(b.Stages) {
		return false
	}
	for j := range a.Stages {
		if a.Stages[j].From != b.Stages[j].From || a.Stages[j].To != b.Stages[j].To {
			return false
		}
	}
	for g := range a.Placement {
		if len(a.Placement[g]) != len(b.Placement[g]) {
			return false
		}
		for i := range a.Placement[g] {
			if a.Placement[g][i] != b.Placement[g][i] {
				return false
			}
		}
	}
	return true
}

// admitRejoinsLocked admits due scheduled returns (each entry fires at
// most once; tide-reclaimed nodes come back through Resizes instead).
func (m *pipeManager) admitRejoinsLocked(nextEpoch int) {
	for i, rj := range m.rc.Rejoins {
		if m.rejoinUsed[i] || !m.dead[rj.Node] || m.reclaimed[rj.Node] || rj.Epoch > nextEpoch {
			continue
		}
		m.rejoinUsed[i] = true
		m.admitLocked(rj.Node, "rejoin")
	}
}

// checkReadyLocked is the barrier's readiness engine: admit due
// returns, and when every usable node has arrived release the next
// round (after a backoff for retries).
func (m *pipeManager) checkReadyLocked() {
	if m.closed || m.done || m.fatal != nil || m.pending {
		return
	}
	nextEpoch, _, _ := m.nextParams()
	if m.cur != nil && !m.cur.failed && nextEpoch >= m.cfg.Epochs {
		// The current round was the last epoch; once all its survivors
		// account for themselves, seal it and finish.
		if m.allExpectedArrivedLocked() {
			m.commitLocked(m.cur)
			m.done = true
			m.cond.Broadcast()
		}
		return
	}
	m.admitRejoinsLocked(nextEpoch)
	if len(m.usableLocked()) == 0 {
		m.failLocked(fmt.Errorf("runtime: no live workers remain at epoch %d", nextEpoch))
		return
	}
	if !m.allExpectedArrivedLocked() {
		return
	}
	_, attempt, _ := m.nextParams()
	if attempt > 0 {
		m.pending = true
		delay := time.Duration(attempt) * m.rc.RetryBackoff
		time.AfterFunc(delay, func() {
			m.mu.Lock()
			m.pending = false
			if !m.closed && m.fatal == nil && m.allExpectedArrivedLocked() {
				m.releaseLocked()
			}
			m.mu.Unlock()
		})
		return
	}
	m.releaseLocked()
}

// releaseLocked seals the previous round if it succeeded, runs the
// replan-vs-degrade decision if membership changed, assigns the state
// transfer, and publishes the next round.
func (m *pipeManager) releaseLocked() {
	epoch, attempt, restore := m.nextParams()
	if m.cur != nil && !m.cur.failed {
		m.commitLocked(m.cur)
	}
	if epoch >= m.cfg.Epochs {
		m.done = true
		m.cond.Broadcast()
		return
	}
	if m.planDirty {
		usable := m.usableLocked()
		chosen, decision, err := m.decideLocked(usable, epoch)
		if err != nil {
			m.failLocked(err)
			return
		}
		if samePipelinePlacement(chosen, m.curPlan) {
			// Nothing actually moves (e.g. a spare died, or a returner
			// the incumbent plan has no use for): keep the incumbent plan
			// object so workers don't reconfigure, and record no episode.
			chosen = m.curPlan
		} else {
			m.pendingEpisode = &ReplanEpisode{
				Epoch:                 epoch,
				Trigger:               m.trigger,
				Decision:              decision,
				OldPlan:               m.curPlan.String(),
				NewPlan:               chosen.String(),
				PredictedEpochSeconds: chosen.EpochSeconds,
				DetectToResumeSeconds: time.Since(m.detectedAt).Seconds(),
			}
			m.reg.Counter("recovery.replans").Inc()
			m.reg.Emit(metrics.Event{Kind: metrics.KindReplan, Epoch: epoch,
				Detail: fmt.Sprintf("%s %s: %s -> %s", m.trigger, decision, m.curPlan, chosen)})
		}
		m.curPlan = chosen
		m.planDirty = false
		m.trigger = ""
	}
	plan := m.curPlan

	pos := pipePositions(plan)
	newcomers := make(map[int]bool)
	for x := range pos {
		if !m.stateful[x] {
			newcomers[x] = true
		}
	}
	source := -1
	if len(newcomers) > 0 {
		// Lowest stateful survivor, preferring one already placed so no
		// extra node has to wake up just to serve.
		for x := 0; x < m.numNodes; x++ {
			if m.stateful[x] && !m.dead[x] {
				if _, placed := pos[x]; placed {
					source = x
					break
				}
				if source < 0 {
					source = x
				}
			}
		}
		if source < 0 {
			m.failLocked(fmt.Errorf("runtime: training state lost at epoch %d: no stateful survivor to seed the new placement", epoch))
			return
		}
	}

	m.relSeq++
	r := &pipeRound{
		seq:       m.relSeq,
		epoch:     epoch,
		attempt:   attempt,
		restore:   restore,
		gen:       uint32(m.relSeq),
		plan:      plan,
		pos:       pos,
		newcomers: newcomers,
		source:    source,
	}
	for x := range pos {
		delete(m.joining, x)
		m.hb.Resume(x)
		m.hb.SetGeneration(x, r.gen)
	}
	if source >= 0 {
		if _, placed := pos[source]; !placed {
			m.hb.Resume(source)
			m.hb.SetGeneration(source, r.gen)
		}
	}
	if attempt > 0 {
		m.stats.Retries++
		m.reg.Counter("recovery.retries").Inc()
		m.reg.Emit(metrics.Event{Kind: metrics.KindRetry, Epoch: epoch, Iter: attempt})
	}
	// Only the round's participants leave the barrier; parked spares
	// stay arrived for the next release.
	arrived := make(map[int]bool)
	for x := 0; x < m.numNodes; x++ {
		if m.arrived[x] && !r.has(x) {
			arrived[x] = true
		}
	}
	m.arrived = arrived
	m.cur = r
	m.cond.Broadcast()
}

// elasticPipeWorker is one mesh node's elastic pipeline life: rounds
// from the manager, snapshots between them, the pipeWorker protocol
// inside, and the state-transfer handshake when placements change.
type elasticPipeWorker struct {
	mgr   *pipeManager
	pw    *pipeWorker
	snaps map[int]*elasticSnap
}

func (w *elasticPipeWorker) run() error {
	pw := w.pw
	me := pw.node.ID()
	cfg := pw.cfg
	reg := cfg.Metrics
	pw.elastic = true
	pw.selfCrashed = func(e, i int) bool { return cfg.Faults.CrashedAt(me, e, i) }
	cCrashes := reg.Counter("runtime.faults.crashes")

	var last *pipeRound
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

		gi, placed := round.pos[me]
		newcomer := placed && round.newcomers[me]
		if placed {
			// keepStage: the new round leaves this node's stage views and
			// cut intact (retries, degrade-in-place), so velocities carry.
			keepStage := pw.sameStage(round.plan, gi[1])
			if round.restore && !newcomer {
				if err := w.restore(epoch, keepStage); err != nil {
					return err
				}
			}
			if pw.p != round.plan {
				if keepStage {
					pw.repoint(round.plan, gi[0])
				} else {
					pw.configure(round.plan, gi[0], gi[1])
				}
			}
			if !newcomer {
				// Snapshot before any transport so a failed transfer can
				// still retry this epoch from here.
				w.takeSnap(epoch)
			}
		}

		if newcomer {
			if err := w.receiveState(round); err != nil {
				if errors.Is(err, transport.ErrInjectedCrash) {
					reg.Emit(metrics.Event{Kind: metrics.KindFault, Epoch: epoch, Node: me, Detail: "crash"})
					cCrashes.Inc()
					return nil
				}
				if recoverableRoundErr(err) {
					lastErr = err
					continue
				}
				return err
			}
			w.takeSnap(epoch)
		} else if round.source == me && len(round.newcomers) > 0 {
			if err := w.serveNewcomers(round); err != nil {
				if errors.Is(err, transport.ErrInjectedCrash) {
					reg.Emit(metrics.Event{Kind: metrics.KindFault, Epoch: epoch, Node: me, Detail: "crash"})
					cCrashes.Inc()
					return nil
				}
				if recoverableRoundErr(err) {
					lastErr = err
					continue
				}
				return err
			}
		}
		if !placed {
			// Served as the state source without holding a stage; back to
			// the barrier as a warm spare.
			continue
		}

		pw.alignData(epoch)
		err = pw.runEpoch(epoch)
		switch {
		case err == errSelfCrash:
			cCrashes.Inc()
			return nil // injected preemption: clean observed-by-peers exit
		case err == nil:
		case errors.Is(err, transport.ErrInjectedCrash):
			reg.Emit(metrics.Event{Kind: metrics.KindFault, Epoch: epoch, Node: me, Detail: "crash"})
			cCrashes.Inc()
			return nil
		case recoverableRoundErr(err):
			lastErr = err
		default:
			return err
		}
	}
}

// restore rolls the full replica back to the epoch's start-of-round
// snapshot; velocities come along only while the stage views they were
// taken under remain valid.
func (w *elasticPipeWorker) restore(epoch int, keepVel bool) error {
	snap := w.snaps[epoch]
	if snap == nil {
		return fmt.Errorf("runtime: stage worker %d has no snapshot for epoch %d retry", w.pw.node.ID(), epoch)
	}
	copySet(w.pw.weights, snap.weights)
	copySet(w.pw.state, snap.state)
	if keepVel && len(snap.vel) == len(w.pw.vel) {
		copySet(w.pw.vel, snap.vel)
	}
	return nil
}

func (w *elasticPipeWorker) takeSnap(epoch int) {
	w.snaps[epoch] = &elasticSnap{
		epoch:   epoch,
		weights: cloneSet(w.pw.weights),
		state:   cloneSet(w.pw.state),
		vel:     cloneSet(w.pw.vel),
	}
	delete(w.snaps, epoch-2)
}

// receiveState installs the source's boundary state into the local
// replica. Velocities are not transferred: a newcomer's stage has no
// momentum history by construction.
func (w *elasticPipeWorker) receiveState(round *pipeRound) error {
	blob, err := w.pw.node.Recv(round.source)
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
	if len(cp.Weights) != len(w.pw.weights) || len(cp.State) != len(w.pw.state) {
		return fmt.Errorf("runtime: transferred state shape mismatch (%d/%d tensors, want %d/%d)",
			len(cp.Weights), len(cp.State), len(w.pw.weights), len(w.pw.state))
	}
	copySet(w.pw.weights, cp.Weights)
	copySet(w.pw.state, cp.State)
	return nil
}

// serveNewcomers ships the epoch-boundary model to every newcomer,
// ascending. The snapshot is authoritative when it exists (this node
// may have trained past the boundary in a failed attempt); otherwise
// the live replica is exactly the boundary state.
func (w *elasticPipeWorker) serveNewcomers(round *pipeRound) error {
	weights, state := w.pw.weights, w.pw.state
	if snap := w.snaps[round.epoch]; snap != nil {
		weights, state = snap.weights, snap.state
	}
	blob := (&core.Checkpoint{Epoch: round.epoch, Weights: weights, State: state}).Bytes()
	for _, nc := range round.newcomerList() {
		if err := w.pw.node.Send(nc, blob); err != nil {
			return err
		}
		w.mgr.addTransferBytes(int64(len(blob)))
	}
	return nil
}
