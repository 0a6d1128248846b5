package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/plan"
	"socflow/internal/quant"
	"socflow/internal/runtime"
	"socflow/internal/serve"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// probeShape is a workload's model and batch shapes, for the layer
// probes of the traced run.
type probeShape struct {
	model, dataset string
	// batch is the samples one replica steps through at once.
	batch int
	// ringMembers is the SoC count of one gradient ring.
	ringMembers int
	// replicas is the model copies averaged together at epoch end.
	replicas int
	// samples is the dataset size a job generates.
	samples int
	// ringsPerEpoch is how many gradient rings over the mesh one epoch
	// waits for (0 when the workload has no mesh).
	ringsPerEpoch float64
	// plan runs the planner search on the workload's job shape.
	plan func() (*plan.Plan, error)
}

// probeResult is one probe's median time and sample count.
type probeResult struct {
	name   string
	median float64 // seconds
	n      int
}

// prober times direct calls into one layer's public functions, each
// call a span in the benchmark's own trace.
type prober struct {
	spans   *metrics.Registry
	results []probeResult
}

// Each probe runs at least probeMin calls and stops after probeBudget
// or probeMax calls, whichever comes first.
const (
	probeMin    = 5
	probeMax    = 200
	probeBudget = 300 * time.Millisecond
)

// time records the median of fn's wall time under name.
func (pr *prober) time(name string, fn func() error) error {
	return pr.timePhase(name, nil, fn)
}

// runProbes times every layer probe on the workload's shapes and
// returns the per-layer values they give.
func runProbes(sh probeShape, seed uint64, spans *metrics.Registry) (map[string]float64, []probeResult, error) {
	pr := &prober{spans: spans}
	values := map[string]float64{}
	spec, err := nn.GetSpec(sh.model)
	if err != nil {
		return nil, nil, err
	}
	prof, err := dataset.GetProfile(sh.dataset)
	if err != nil {
		return nil, nil, err
	}

	var ds *dataset.Dataset
	if err := pr.time("dataset.generate", func() error {
		ds = prof.Generate(dataset.GenOptions{Samples: sh.samples, Seed: seed})
		return nil
	}); err != nil {
		return nil, nil, err
	}
	model := spec.BuildMicro(tensor.NewRNG(seed), ds.Channels(), ds.ImageSize(), ds.Classes)
	batch := min(sh.batch, ds.Len())
	x, labels := ds.Batch(firstN(batch))

	// nn: one training step, split into its three phases.
	opt := nn.NewSGD(0.01, 0.9, 0)
	var logits, grad *tensor.Tensor
	step := []struct {
		name string
		fn   func() error
	}{
		{"nn.forward", func() error { logits = model.Forward(x, true); return nil }},
		{"nn.backward", func() error {
			_, grad = nn.SoftmaxCrossEntropy(logits, labels)
			model.Backward(grad)
			return nil
		}},
		{"nn.sgd_step", func() error { opt.Step(model.Params()); model.ZeroGrad(); return nil }},
	}
	for _, s := range step {
		s.fn() // warm the layer buffers and fused plans before timing
	}
	for _, s := range step {
		// Each phase needs the ones before it, so every timed call
		// replays the step up to that phase.
		var before []func() error
		for _, b := range step {
			if b.name == s.name {
				break
			}
			before = append(before, b.fn)
		}
		if err := pr.timePhase(s.name, before, s.fn); err != nil {
			return nil, nil, err
		}
	}

	// quant: fake-quantizing every weight (the NPU replica's refresh),
	// and a true int8 GEMM at the largest conv's lowered shape.
	weights := model.Weights()
	if err := pr.time("quant.fakequant", func() error {
		for _, w := range weights {
			quant.FakeQuantizeInPlace(w.Clone())
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	m, k, n := largestConvGEMM(weights, batch*ds.ImageSize()*ds.ImageSize())
	a, b := make([]int8, m*k), make([]int8, n*k)
	rng := tensor.NewRNG(seed)
	for i := range a {
		a[i] = int8(rng.Intn(255) - 127)
	}
	for i := range b {
		b[i] = int8(rng.Intn(255) - 127)
	}
	sb, dst := make([]float32, n), make([]float32, m*n)
	for i := range sb {
		sb[i] = 0.01
	}
	if err := pr.time("quant.int8_gemm", func() error {
		quant.Int8MatMulT2(dst, a, 0.01, b, sb, nil, m, k, n, quant.Exact{})
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// collective: the cross-group weight average at epoch end.
	sets := make([][]*tensor.Tensor, max(2, sh.replicas))
	for i := range sets {
		for _, w := range weights {
			sets[i] = append(sets[i], w.Clone())
		}
	}
	if err := pr.time("collective.average", func() error { collective.AverageInPlace(sets); return nil }); err != nil {
		return nil, nil, err
	}

	// transport and runtime: one ring chunk's TCP round trip, and the
	// whole ring all-reduce of the model's gradient.
	members := max(2, sh.ringMembers)
	params := model.ParamCount()
	if err := probeTCP(pr, members, params); err != nil {
		return nil, nil, err
	}

	// plan and simnet: the planner search on the job shape, and one
	// simulated ring all-reduce at paper scale.
	var p *plan.Plan
	if err := pr.time("plan.search", func() (err error) { p, err = sh.plan(); return err }); err != nil {
		return nil, nil, err
	}
	values["plan.candidates"] = float64(p.Candidates)
	if p.Mode == plan.ModePipeline {
		d, mb := float64(p.Depth()), float64(p.MicroBatches)
		values["plan.bubble_frac"] = (d - 1) / (mb + d - 1)
	}
	clu := cluster.New(cluster.Config{NumSoCs: max(members, 2)})
	ring := firstN(members)
	if err := pr.time("simnet.simulate", func() error {
		collective.RingAllReduceTime(clu, ring, float64(spec.GradBytes()))
		return nil
	}); err != nil {
		return nil, nil, err
	}

	// serve: one batched prediction at the batch bound.
	engine, err := serve.NewEngine(serve.EngineConfig{
		Spec: spec, Model: model, Cluster: clu, Stages: 2,
		InC: ds.Channels(), ImgSize: ds.ImageSize(),
	})
	if err != nil {
		return nil, nil, err
	}
	sx, _ := ds.Batch(firstN(min(8, ds.Len())))
	if err := pr.time("serve.predict", func() error { engine.Predict(sx); return nil }); err != nil {
		return nil, nil, err
	}

	// serve: the scheduler alone, replaying the peak hour of the
	// serve-peak window timing-only with this workload's model.
	window := (&servePeak{}).config(seed, false)
	window.Model, window.Dataset, window.StartHour, window.Hours = sh.model, sh.dataset, 14, 1
	replayEngine, err := servingEngine(window)
	if err != nil {
		return nil, nil, err
	}
	var requests int
	if err := pr.time("serve.sched", func() (err error) {
		_, requests, err = replayWindow(replayEngine, window)
		return err
	}); err != nil {
		return nil, nil, err
	}

	for _, r := range pr.results {
		switch r.name {
		case "dataset.generate", "plan.search":
			values[r.name+"_s"] = r.median
		case "transport.frame_rtt", "simnet.simulate", "serve.predict":
			values[r.name+"_us"] = r.median * 1e6
		case "serve.sched":
			values["serve.sched_us_per_request"] = r.median * 1e6 / float64(max(1, requests))
		default:
			values[r.name+"_ms"] = r.median * 1e3
		}
	}
	return values, pr.results, nil
}

// timePhase times fn after running its prerequisite phases untimed.
func (pr *prober) timePhase(name string, before []func() error, fn func() error) error {
	var ds []float64
	start := time.Now()
	for len(ds) < probeMin || (len(ds) < probeMax && time.Since(start) < probeBudget) {
		for _, b := range before {
			if err := b(); err != nil {
				return err
			}
		}
		span := pr.spans.BeginSpan(name, "probe", 0)
		t0 := time.Now()
		err := fn()
		ds = append(ds, time.Since(t0).Seconds())
		span.End()
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
	}
	pr.results = append(pr.results, probeResult{name, median(ds), len(ds)})
	return nil
}

// probeTCP times a Send/Recv ping-pong of one ring chunk between two
// loopback-TCP nodes, and RingAllReduceAverage of params floats across
// members nodes.
func probeTCP(pr *prober, members, params int) error {
	mesh, err := transport.NewTCPMesh(members)
	if err != nil {
		return err
	}
	defer mesh.Close()
	a, b := mesh.Node(0), mesh.Node(1)
	chunk := make([]byte, 4*params/members)
	if err := pr.time("transport.frame_rtt", func() error {
		echo := make(chan error, 1)
		go func() {
			msg, err := b.Recv(0)
			if err == nil {
				err = b.Send(0, msg)
			}
			echo <- err
		}()
		if err := a.Send(1, chunk); err != nil {
			return err
		}
		if _, err := a.Recv(1); err != nil {
			return err
		}
		return <-echo
	}); err != nil {
		return err
	}

	group := firstN(members)
	data := make([][]float32, members)
	for i := range data {
		data[i] = make([]float32, params)
	}
	return pr.time("runtime.ring_allreduce", func() error {
		errs := make([]error, members)
		var wg sync.WaitGroup
		for i := range group {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = runtime.RingAllReduceAverage(mesh.Node(i), group, data[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// largestConvGEMM is the im2col GEMM shape (m rows of lowered input, k
// reduction, n output channels) of the model's largest 4-D weight, at
// m = positions of the workload batch.
func largestConvGEMM(weights []*tensor.Tensor, positions int) (m, k, n int) {
	sorted := append([]*tensor.Tensor(nil), weights...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Size() > sorted[j].Size() })
	for _, w := range sorted {
		if w.Dims() == 4 {
			return positions, w.Size() / w.Shape[0], w.Shape[0]
		}
	}
	w := sorted[0]
	return positions, w.Size() / w.Shape[0], w.Shape[0]
}

func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
