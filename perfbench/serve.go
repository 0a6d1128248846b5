package main

import (
	"context"
	"fmt"
	"math"

	"socflow"
	"socflow/internal/cluster"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/plan"
	"socflow/internal/serve"
	"socflow/internal/tensor"
)

// servePeak replays the afternoon request peak through Client.Serve:
// the batcher, shed-on-hopeless admission and simnet pricing run on
// every batch, and the same nn/tensor kernels run forward-only. The
// offered rate is far below the replicas' capacity: VGG-11 replicas
// serve hundreds of requests per simulated second, and one simulated
// hour at that rate is minutes of host time, so the window stays small
// enough for many set-ups per run and capacity is searched timing-only.
type servePeak struct{}

func (*servePeak) info() workloadInfo {
	return workloadInfo{
		name:       "serve-peak",
		why:        "Client.Serve of VGG-11 over the 13:00-16:00 tide peak with timing-only capacity search: batcher, admission, simnet, forward-only kernels",
		jobSeconds: 0.045,
	}
}

// sloTarget is the attainment sim_capacity_rps must keep.
const sloTarget = 0.99

func (*servePeak) config(seed uint64, short bool) socflow.ServeConfig {
	cfg := socflow.ServeConfig{
		Model: "vgg11", Dataset: "cifar10", Stages: 2, MaxBatch: 8,
		MaxQueueDelay: 0.05, SLO: 0.5, PeakRPS: 0.1,
		StartHour: 13, Hours: 3, NumSoCs: 4, Samples: 256, Seed: seed,
	}
	if short {
		cfg.Hours = 2
		cfg.PeakRPS = 0.05
	}
	return cfg
}

func (w *servePeak) job(ctx context.Context, env *jobEnv) (*jobOut, error) {
	cfg := w.config(env.seed, env.short)
	reg := metrics.New()
	out := &jobOut{}
	p := startProgress(env.spans, env.index, "hour")
	var hourly int
	cfg.HourEnd = func(s socflow.ServeHourStat) {
		hourly += s.Requests
		p.mark(float64(s.Requests))
	}
	h, err := env.client.Serve(ctx, cfg, env.options(reg)...)
	if err != nil {
		return nil, err
	}
	rep, events, err := follow(ctx, env, h.Status, p, out, h.Wait)
	if err != nil {
		return nil, err
	}
	out.reg = rep.Metrics
	out.items = float64(rep.Requests)
	out.quality = rep.Attainment
	out.ok, out.attempted = rep.Served, rep.Requests

	slices := int(math.Ceil(cfg.Hours))
	out.check(rep.Requests > 0, "no requests replayed")
	out.check(rep.Served+rep.Shed+rep.Canceled == rep.Requests,
		"served %d + shed %d + canceled %d != requests %d", rep.Served, rep.Shed, rep.Canceled, rep.Requests)
	out.check(hourly == rep.Requests, "hourly requests sum to %d, report says %d", hourly, rep.Requests)
	out.check(rep.P50Seconds <= rep.P99Seconds, "p50 %v > p99 %v", rep.P50Seconds, rep.P99Seconds)
	out.check(rep.Attainment >= 0 && rep.Attainment <= 1, "attainment %v outside [0, 1]", rep.Attainment)
	out.check(len(rep.Hourly) == slices && events == slices,
		"got %d hourly stats and %d hour events for a %d-slice window", len(rep.Hourly), events, slices)

	var failed float64
	if rep.Requests > 0 {
		failed = float64(rep.Shed+rep.Canceled) / float64(rep.Requests)
	}
	var fill float64
	if rep.Batches > 0 {
		fill = float64(rep.Served) / float64(rep.Batches*cfg.MaxBatch)
	}
	out.values = map[string]float64{
		"sim_p50_ms":       rep.P50Seconds * 1e3,
		"sim_p99_ms":       rep.P99Seconds * 1e3,
		"slo_attain":       rep.Attainment,
		"fail_frac":        failed,
		"serve.batch_fill": fill,
	}
	return out, nil
}

// finish reports the request rate and searches the replicas' capacity
// with timing-only replays of the window's busiest six minutes
// (14:27-14:33) at the first job's seed.
func (w *servePeak) finish(_ context.Context, rc runConfig, p *pass, _ bool) (map[string]float64, []string, error) {
	cfg := w.config(jobSeed(rc.seed, 0), rc.short)
	cfg.StartHour, cfg.Hours = 14.45, 0.1
	rps, err := capacity(cfg)
	if err != nil {
		return nil, nil, err
	}
	values := map[string]float64{
		"requests_per_s":   p.throughput(),
		"sim_capacity_rps": rps,
	}
	var failures []string
	if !(rps > 0) {
		failures = append(failures, fmt.Sprintf("no offered rate keeps attainment >= %v", sloTarget))
	}
	return values, failures, nil
}

func (w *servePeak) shape(rc runConfig) probeShape {
	cfg := w.config(rc.seed, rc.short)
	return probeShape{
		model: cfg.Model, dataset: cfg.Dataset,
		batch:       cfg.MaxBatch,
		ringMembers: 2,
		replicas:    2,
		samples:     cfg.Samples,
		plan: func() (*plan.Plan, error) {
			return socflow.PlanParallelism(socflow.Config{JobSpec: socflow.JobSpec{Model: cfg.Model, Dataset: cfg.Dataset}, NumSoCs: cfg.NumSoCs})
		},
	}
}

// servingEngine builds the engine Client.Serve builds for cfg. Weights
// do not matter to timing-only replays, so they are freshly seeded.
func servingEngine(cfg socflow.ServeConfig) (*serve.Engine, error) {
	spec, err := nn.GetSpec(cfg.Model)
	if err != nil {
		return nil, err
	}
	prof, err := dataset.GetProfile(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	ds := prof.Generate(dataset.GenOptions{Samples: cfg.Samples, Seed: cfg.Seed})
	model := spec.BuildMicro(tensor.NewRNG(cfg.Seed), ds.Channels(), ds.ImageSize(), ds.Classes)
	scale := float64(prof.PaperSize*prof.PaperSize) / float64(ds.ImageSize()*ds.ImageSize())
	return serve.NewEngine(serve.EngineConfig{
		Spec: spec, Model: model, Cluster: cluster.New(cluster.Config{NumSoCs: cfg.NumSoCs}),
		Stages: cfg.Stages, InC: ds.Channels(), ImgSize: ds.ImageSize(), ActivationScale: scale,
	})
}

// replayWindow replays cfg's window timing-only (no predictions), slice
// by slice with the facade's per-hour footprint and arrival seeds, and
// returns the window's attainment and request count.
func replayWindow(e *serve.Engine, cfg socflow.ServeConfig) (attain float64, requests int, err error) {
	trace := cluster.DefaultTidalTrace()
	var met, counted int
	for i := 0; float64(i) < cfg.Hours; i++ {
		span := math.Min(float64(i+1), cfg.Hours) - float64(i)
		hour := math.Mod(cfg.StartHour+float64(i), 24)
		_, replicas := serve.Footprint(cfg.NumSoCs, cfg.Stages, trace.BusyFraction(hour))
		lg := serve.LoadGen{
			Trace: trace, PeakRPS: cfg.PeakRPS, SLO: cfg.SLO,
			Samples: cfg.Samples, Seed: cfg.Seed + uint64(i)*0x9e3779b97f4a7c15,
		}
		res, err := serve.Replay(e, lg.Arrivals(hour, span), serve.ReplayConfig{
			Batcher:  serve.BatcherConfig{MaxBatch: cfg.MaxBatch, MaxDelay: cfg.MaxQueueDelay},
			Replicas: replicas,
		})
		if err != nil {
			return 0, 0, err
		}
		met += res.SLOMet
		counted += res.Requests - res.Canceled
		requests += res.Requests
	}
	if counted == 0 {
		return 1, requests, nil
	}
	return float64(met) / float64(counted), requests, nil
}

// capacity is the highest peak rate whose window keeps attainment at
// sloTarget, found by bisection to 0.5%.
func capacity(cfg socflow.ServeConfig) (float64, error) {
	e, err := servingEngine(cfg)
	if err != nil {
		return 0, err
	}
	meets := func(rate float64) (bool, error) {
		c := cfg
		c.PeakRPS = rate
		attain, _, err := replayWindow(e, c)
		return attain >= sloTarget, err
	}
	lo, hi := 0.0, cfg.PeakRPS
	for doublings := 0; ; doublings++ {
		ok, err := meets(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if doublings == 30 {
			return 0, fmt.Errorf("attainment stays >= %v up to %v requests/s", sloTarget, hi)
		}
		lo, hi = hi, 2*hi
	}
	for hi-lo > 5e-3*hi {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
