package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"socflow"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/plan"
)

// workloadInfo names a workload and records why it exists.
type workloadInfo struct {
	name, why string
	// jobSeconds is one job's nominal wall time on the reference host
	// (2 vCPUs); a pass makes seconds/jobSeconds jobs.
	jobSeconds float64
	// procs, when positive, caps the run at that many cores: GOMAXPROCS
	// and the facade's parallelism both. Zero uses every core.
	procs int
}

// workload is one closed-loop traffic mix: one facade job at a time,
// from one process, at WithParallelism of the run's core count.
type workload interface {
	info() workloadInfo
	// job runs one facade job and checks its outputs.
	job(ctx context.Context, env *jobEnv) (*jobOut, error)
	// finish adds run-level results and checks after the jobs.
	// Values are routed to the report or per-layer output by name.
	finish(ctx context.Context, rc runConfig, p *pass, traced bool) (values map[string]float64, failures []string, err error)
	// shape gives the layer probes the workload's model and batch shapes.
	shape(rc runConfig) probeShape
}

func workloads() []workload {
	return []workload{&trainLocal{}, &meshRing{}, &meshPipeline{}, &servePeak{}}
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.info().name == name {
			return w, nil
		}
		names = append(names, w.info().name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// follow waits for a submitted job whose progress p stamps, fills the
// timing fields of out, and returns the report and the progress-event
// count.
func follow[R any](ctx context.Context, env *jobEnv, status func(context.Context) (socflow.JobStatus, error), p *progress, out *jobOut, wait func(context.Context) (R, error)) (R, int, error) {
	stop := func() {}
	if env.spans != nil {
		stop = watchAdmission(ctx, status, p.submit, out)
	}
	span := env.spans.BeginSpan("wait", "facade", env.index)
	rep, err := wait(ctx)
	out.wall = time.Since(p.submit).Seconds()
	span.End()
	stop()
	return rep, p.fill(out), err
}

// checkTraining applies the output checks every training job shares
// and, as the job's last check, counts the job ok if none failed.
func checkTraining(out *jobOut, accs []float64, events, epochs int, minAcc float64) {
	out.accs = accs
	out.attempted = 1
	out.check(len(accs) == epochs, "got %d epoch accuracies, config asked for %d epochs", len(accs), epochs)
	out.check(events == epochs, "got %d epoch progress events for %d epochs", events, epochs)
	if len(accs) > 0 {
		out.quality = accs[len(accs)-1]
	}
	out.check(out.quality >= minAcc && out.quality <= 1, "final accuracy %.4f outside [%.2f, 1] (chance is 0.10)", out.quality, minAcc)
	if len(out.failures) == 0 {
		out.ok = 1
	}
}

// minAcc is the final-accuracy floor for the 10-class workloads: 2.5
// times chance. Short smoke runs train too briefly to clear it and only
// check the accuracy is a valid fraction.
func minAcc(short bool) float64 {
	if short {
		return 0
	}
	return 0.25
}

// trainLocal is the path a library user pays for: Run's simulated
// cluster with the real training math on the host.
type trainLocal struct{}

func (*trainLocal) info() workloadInfo {
	return workloadInfo{
		name:       "train-local",
		why:        "Run of ResNet-18 with mixed FP32+INT8 on a simulated 32-SoC cluster: host kernels dominate, no transport",
		jobSeconds: 1.4,
	}
}

func (*trainLocal) config(seed uint64, short bool) socflow.Config {
	cfg := socflow.Config{
		JobSpec: socflow.JobSpec{
			Model: "resnet18", Dataset: "cifar10", Epochs: 16, GlobalBatch: 16, LR: 0.1,
			TrainSamples: 256, ValSamples: 128, Seed: seed,
		},
		Strategy: "socflow", NumSoCs: 32, Groups: 8, Mixed: "auto",
	}
	if short {
		cfg.Epochs, cfg.TrainSamples, cfg.ValSamples = 2, 128, 64
	}
	return cfg
}

func (w *trainLocal) job(ctx context.Context, env *jobEnv) (*jobOut, error) {
	cfg := w.config(env.seed, env.short)
	reg := metrics.New()
	out := &jobOut{items: float64(cfg.Epochs * cfg.TrainSamples)}
	p := startProgress(env.spans, env.index, "epoch")
	p.stampEpochs(reg, float64(cfg.TrainSamples))
	h, err := env.client.Submit(ctx, cfg, env.options(reg)...)
	if err != nil {
		return nil, err
	}
	rep, events, err := follow(ctx, env, h.Status, p, out, h.Wait)
	if err != nil {
		return nil, err
	}
	out.reg = rep.Metrics
	out.check(finitePositive(rep.MeanEpochSeconds) && finitePositive(rep.EnergyKJ),
		"simulated epoch %v s, energy %v kJ: want finite and positive", rep.MeanEpochSeconds, rep.EnergyKJ)
	checkTraining(out, rep.EpochAccuracies, events, cfg.Epochs, minAcc(env.short))
	out.values = map[string]float64{
		"samples_per_epoch":  float64(cfg.TrainSamples),
		"final_acc":          rep.FinalAccuracy,
		"sim_epoch_s":        rep.MeanEpochSeconds,
		"sim_energy_kj":      rep.EnergyKJ,
		"fail_frac":          float64(1 - out.ok),
		"core.sim.compute_s": rep.ComputeSeconds,
		"core.sim.sync_s":    rep.SyncSeconds,
		"core.sim.update_s":  rep.UpdateSeconds,
	}
	return out, nil
}

func (*trainLocal) finish(context.Context, runConfig, *pass, bool) (map[string]float64, []string, error) {
	return nil, nil, nil
}

func (w *trainLocal) shape(rc runConfig) probeShape {
	cfg := w.config(rc.seed, rc.short)
	return probeShape{
		model: cfg.Model, dataset: cfg.Dataset,
		// Run trains each group's batch as one single-model step.
		batch:       cfg.GlobalBatch,
		ringMembers: cfg.NumSoCs / cfg.Groups,
		replicas:    cfg.Groups,
		samples:     cfg.TrainSamples + cfg.ValSamples,
		plan:        func() (*plan.Plan, error) { return socflow.PlanParallelism(cfg) },
	}
}

// meshRing puts the transport and the gradient ring on the critical
// path: RunDistributed over loopback TCP with one 8-SoC data-parallel
// group at 1 sample per SoC, so each step is one latency-bound ring.
//
// Both mesh workloads run on one core. Each ring hop or pipeline frame
// wakes a goroutine parked on another socket; with two cores many of
// those wake-ups cross cores, and their latency is the host scheduler's,
// not the program's: one busy neighbour process costs the 8-SoC ring
// 35-40% of its throughput at two cores and under 5% at one.
type meshRing struct{}

func (*meshRing) info() workloadInfo {
	return workloadInfo{
		name:       "mesh-ring",
		why:        "RunDistributed of VGG-11 over loopback TCP on one core, one 8-SoC ring at 1 sample per SoC: the gradient ring is the largest part of each step",
		jobSeconds: 0.6,
		procs:      1,
	}
}

func (*meshRing) config(seed uint64, short bool) socflow.DistributedConfig {
	cfg := socflow.DistributedConfig{
		JobSpec: socflow.JobSpec{
			Model: "vgg11", Dataset: "cifar10", Epochs: 8, GlobalBatch: 8, LR: 0.005,
			TrainSamples: 256, ValSamples: 128, Seed: seed,
		},
		NumSoCs: 8, Groups: 1,
	}
	if short {
		cfg.Epochs, cfg.TrainSamples, cfg.ValSamples = 2, 64, 64
	}
	return cfg
}

func (w *meshRing) job(ctx context.Context, env *jobEnv) (*jobOut, error) {
	cfg := w.config(env.seed, env.short)
	out, rep, events, err := distributedJob(ctx, env, cfg)
	if err != nil {
		return nil, err
	}
	checkTraining(out, rep.EpochAccuracies, events, cfg.Epochs, minAcc(env.short))
	distributedReport(out, cfg)
	return out, nil
}

// finish, in the traced run, checks that the TCP mesh and the
// in-process channel mesh train bit-identically at the first job's seed.
func (w *meshRing) finish(ctx context.Context, rc runConfig, p *pass, traced bool) (map[string]float64, []string, error) {
	if !traced || len(p.errs) > 0 || len(p.outs) == 0 {
		return nil, nil, nil
	}
	cfg := w.config(jobSeed(rc.seed, 0), rc.short)
	cfg.InProcess = true
	twin, err := socflow.RunDistributed(ctx, cfg, socflow.WithParallelism(rc.nproc))
	if err != nil {
		return nil, nil, fmt.Errorf("in-process twin: %w", err)
	}
	if !slices.Equal(twin.EpochAccuracies, p.outs[0].accs) {
		return nil, []string{fmt.Sprintf("TCP accuracies %v differ from the in-process twin's %v", p.outs[0].accs, twin.EpochAccuracies)}, nil
	}
	return nil, nil, nil
}

// shape: every step is one ring over the group's members, each member
// stepping through its share of the group batch.
func (w *meshRing) shape(rc runConfig) probeShape {
	cfg := w.config(rc.seed, rc.short)
	members := cfg.NumSoCs / cfg.Groups
	opts := plan.Options{
		Spec: nn.MustSpec(cfg.Model), NumSoCs: cfg.NumSoCs, GlobalBatch: cfg.GlobalBatch,
		Samples: cfg.TrainSamples, MaxGroups: cfg.Groups, Only: plan.ModeData,
	}
	return distributedShape(cfg, max(1, cfg.GlobalBatch/members), members, float64(cfg.TrainSamples/cfg.GlobalBatch), opts)
}

// meshPipeline uses the same transport for point-to-point activation
// and gradient frames: the planner's pipeline plan for ResNet-34 on 8
// SoCs, searched at submit, executed over loopback TCP.
type meshPipeline struct{}

func (*meshPipeline) info() workloadInfo {
	return workloadInfo{
		name:       "mesh-pipeline",
		why:        "RunDistributed of ResNet-34 with the planner's pipeline plan on 8 SoCs over loopback TCP on one core: activation frames and stage idle",
		jobSeconds: 0.6,
		procs:      1,
	}
}

func (*meshPipeline) config(seed uint64, short bool) socflow.DistributedConfig {
	cfg := socflow.DistributedConfig{
		JobSpec: socflow.JobSpec{
			Model: "resnet34", Dataset: "cifar10", Epochs: 6, GlobalBatch: 16,
			TrainSamples: 256, ValSamples: 256, Seed: seed,
		},
		NumSoCs: 8, Groups: 2, Parallelism: "pipeline",
	}
	if short {
		cfg.Epochs, cfg.TrainSamples, cfg.ValSamples = 2, 64, 64
	}
	return cfg
}

// planOptions reproduces the search the facade runs at submit: the
// train split of a TrainSamples+ValSamples pool holds TrainSamples
// samples because the split fraction is exact.
func (*meshPipeline) planOptions(cfg socflow.DistributedConfig) plan.Options {
	return plan.Options{
		Spec: nn.MustSpec(cfg.Model), NumSoCs: cfg.NumSoCs, GlobalBatch: cfg.GlobalBatch,
		Samples: cfg.TrainSamples, MaxGroups: cfg.Groups, Only: plan.ModePipeline,
	}
}

func (w *meshPipeline) job(ctx context.Context, env *jobEnv) (*jobOut, error) {
	cfg := w.config(env.seed, env.short)
	out, rep, events, err := distributedJob(ctx, env, cfg)
	if err != nil {
		return nil, err
	}
	checkTraining(out, rep.EpochAccuracies, events, cfg.Epochs, minAcc(env.short))
	distributedReport(out, cfg)
	out.topology = rep.Topology
	return out, nil
}

// finish checks that the planner chose a pipeline plan and that every
// job ran exactly that plan's placement.
func (w *meshPipeline) finish(_ context.Context, rc runConfig, p *pass, _ bool) (map[string]float64, []string, error) {
	want, err := plan.Search(w.planOptions(w.config(rc.seed, rc.short)))
	if err != nil {
		return nil, nil, fmt.Errorf("planner: %w", err)
	}
	var failures []string
	if want.Mode != plan.ModePipeline {
		failures = append(failures, fmt.Sprintf("planner chose %s, want a pipeline plan", want))
	}
	for i, o := range p.outs {
		if !slices.EqualFunc(o.topology, want.Placement, slices.Equal[[]int]) {
			failures = append(failures, fmt.Sprintf("job %d ran placement %v, planner's is %v", i, o.topology, want.Placement))
		}
	}
	return nil, failures, nil
}

// shape: stages step through GPipe micro-batches, and the only ring is
// the epoch-end average across the groups.
func (w *meshPipeline) shape(rc runConfig) probeShape {
	cfg := w.config(rc.seed, rc.short)
	opts := w.planOptions(cfg)
	batch := cfg.GlobalBatch
	if p, err := plan.Search(opts); err == nil && p.MicroBatches > 0 {
		batch /= p.MicroBatches
	}
	return distributedShape(cfg, batch, cfg.Groups, 1, opts)
}

// distributedJob submits one RunDistributed job and follows its epochs.
func distributedJob(ctx context.Context, env *jobEnv, cfg socflow.DistributedConfig) (*jobOut, *socflow.DistributedReport, int, error) {
	reg := metrics.New()
	out := &jobOut{items: float64(cfg.Epochs * cfg.TrainSamples)}
	p := startProgress(env.spans, env.index, "epoch")
	p.stampEpochs(reg, float64(cfg.TrainSamples))
	h, err := env.client.SubmitDistributed(ctx, cfg, env.options(reg)...)
	if err != nil {
		return nil, nil, 0, err
	}
	rep, events, err := follow(ctx, env, h.Status, p, out, h.Wait)
	if err != nil {
		return nil, nil, 0, err
	}
	out.reg = rep.Metrics
	return out, rep, events, nil
}

func distributedReport(out *jobOut, cfg socflow.DistributedConfig) {
	final := 0.0
	if len(out.accs) > 0 {
		final = out.accs[len(out.accs)-1]
	}
	out.values = map[string]float64{
		"samples_per_epoch": float64(cfg.TrainSamples),
		"final_acc":         final,
		"fail_frac":         float64(1 - out.ok),
	}
}

// distributedShape sizes the probes for a mesh job.
func distributedShape(cfg socflow.DistributedConfig, batch, ringMembers int, ringsPerEpoch float64, opts plan.Options) probeShape {
	return probeShape{
		model: cfg.Model, dataset: cfg.Dataset,
		batch:         batch,
		ringMembers:   ringMembers,
		replicas:      cfg.Groups,
		samples:       cfg.TrainSamples + cfg.ValSamples,
		ringsPerEpoch: ringsPerEpoch,
		plan:          func() (*plan.Plan, error) { return plan.Search(opts) },
	}
}

func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }
