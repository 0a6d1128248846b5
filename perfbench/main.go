// Command perfbench is the repository benchmark. It runs one of four
// closed-loop workloads through the public facade (Run, RunDistributed,
// Client.Serve), checks every job's outputs, and prints its metrics —
// the end-to-end metrics untraced, the per-layer metrics with --trace 1
// — one per line with unit and better direction, then one JSON line:
//
//	bash perfbench/run.sh --workload mesh-ring --seed 1 --seconds 10 --trace 0
//
// See README.md for the metrics, the workloads, and why each exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"socflow/internal/metrics"
	"socflow/internal/tensor"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// value is one metric of the JSON result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: train-local, mesh-ring, mesh-pipeline or serve-peak")
	seed := fs.Uint64("seed", 1, "seed every dataset, weight and arrival seed is derived from")
	seconds := fs.Float64("seconds", 10, "nominal length of the measured jobs in seconds; sets the job count")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced pass and prints the per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory the traced run writes its span trace to")
	short := fs.Bool("short", false, "one small job per pass, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	switch {
	case err != nil:
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	case !(*seconds > 0) || math.IsInf(*seconds, 0):
		err = fmt.Errorf("--seconds %v: want a positive number", *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	nproc := runtime.NumCPU()
	if procs := w.info().procs; procs > 0 && procs < nproc {
		nproc = procs
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc))
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short, nproc: nproc}
	res, err := execute(ctx, w, rc, *out, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs the workload's passes and assembles the result. The
// untraced run is one pass. The traced run repeats that pass untraced
// as the overhead baseline, then runs it traced with kernel timing on,
// then the layer probes.
func execute(ctx context.Context, w workload, rc runConfig, outDir string, stdout, stderr io.Writer) (*result, error) {
	n := rc.jobs(w.info().jobSeconds)
	fmt.Fprintf(stdout, "workload %s  seed %d  jobs per pass %d  parallelism %d  trace %v\n", w.info().name, rc.seed, n, rc.nproc, rc.trace)

	base, err := runPass(ctx, w, rc, n, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "untraced pass: %d jobs in %.3f s\n", len(base.walls), base.wall())
	res := &result{Metrics: map[string]value{}}
	var failures []string
	tally := func(p *pass, extra []string) {
		res.Attempted += len(p.outs) + len(p.errs)
		res.Failed += p.failedJobs() + len(extra)
		failures = append(failures, p.failures()...)
		failures = append(failures, extra...)
	}

	if !rc.trace {
		vals, extra, err := w.finish(ctx, rc, base, false)
		if err != nil {
			return nil, err
		}
		tally(base, extra)
		for k, v := range endToEndValues(base) {
			res.Metrics[k] = value{Value: v}
		}
		printReported(stdout, base, vals)
	} else {
		spans := metrics.New()
		spans.SetMaxSpans(1 << 20)
		prev := tensor.EnableKernelTiming(true)
		traced, err := runPass(ctx, w, rc, n, spans)
		tensor.EnableKernelTiming(prev)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "traced pass: %d jobs in %.3f s\n", len(traced.walls), traced.wall())
		vals, extra, err := w.finish(ctx, rc, traced, true)
		if err != nil {
			return nil, err
		}
		tally(base, nil)
		tally(traced, extra)
		probeVals, probes, err := runProbes(w.shape(rc), rc.seed, spans)
		if err != nil {
			return nil, err
		}
		if vals == nil {
			vals = map[string]float64{}
		}
		for k, v := range probeVals {
			vals[k] = v
		}
		for k, v := range perLayerValues(rc, w.shape(rc), base, traced, vals) {
			res.Metrics[k] = value{Value: v}
		}
		printReported(stdout, traced, vals)
		for _, p := range probes {
			fmt.Fprintf(stdout, "probe %-24s median %.6g s over %d calls\n", p.name, p.median, p.n)
		}
		path, err := writeTrace(spans, outDir, w.info().name, rc.seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "span trace: %s\n", path)
	}

	catalog := endToEnd
	if rc.trace {
		catalog = perLayer
	}
	for _, m := range catalog {
		v := res.Metrics[m.Name]
		v.Unit = m.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			failures = append(failures, fmt.Sprintf("metric %s is %v", m.Name, v.Value))
			res.Failed++
			v.Value = 0
		}
		res.Metrics[m.Name] = v
		fmt.Fprintf(stdout, "%-30s %14.6g %-8s (%s is better)\n", m.Name, v.Value, m.Unit, m.Better)
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "check failed:", f)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndValues computes the gated metrics of an untraced pass.
func endToEndValues(p *pass) map[string]float64 {
	ok, attempted := 0, len(p.errs)
	for _, o := range p.outs {
		ok += o.ok
		attempted += o.attempted
	}
	okFrac := 0.0
	if attempted > 0 {
		okFrac = float64(ok) / float64(attempted)
	}
	return map[string]float64{
		"setup_s":       p.setup(),
		"samples_per_s": p.throughput(),
		"quality_frac":  p.mean(func(o *jobOut) float64 { return o.quality }),
		"ok_frac":       okFrac,
		"peak_heap_mb":  p.heap / 1e6,
	}
}

// perLayerValues computes the per-layer metrics of a traced pass from
// the layers' counters, the job registries, the run-level values and
// the probes in vals, and the untraced baseline pass.
func perLayerValues(rc runConfig, sh probeShape, base, p *pass, vals map[string]float64) map[string]float64 {
	v := map[string]float64{}
	for k, x := range averaged(p) {
		v[k] = x
	}
	for k, x := range vals {
		v[k] = x
	}
	v["tensor.gemm.ops"] = float64(p.kernel.GEMMOps)
	v["tensor.gemm.gflop"] = float64(p.kernel.GEMMFLOPs) / 1e9
	v["tensor.gemm.busy_s"] = float64(p.kernel.GEMMNanos) / 1e9
	if busy := v["tensor.gemm.busy_s"]; busy > 0 {
		v["tensor.gemm.gflops_per_s"] = v["tensor.gemm.gflop"] / busy
	}
	v["tensor.im2col.ops"] = float64(p.kernel.Im2ColOps)
	v["nn.conv.fwd"] = float64(p.layers.ConvForward)
	v["nn.conv.bwd"] = float64(p.layers.ConvBackward)
	v["nn.dense.fwd"] = float64(p.layers.DenseForward)
	v["nn.dense.bwd"] = float64(p.layers.DenseBackward)

	wall := p.wall()
	if wall > 0 {
		v["parallel.cpu_util"] = p.cpu / (wall * float64(rc.nproc))
	}
	epoch := p.epochWallP50()
	v["core.epoch_s_p50"] = epoch

	sent := p.counter("transport.sent.bytes")
	v["transport.sent.bytes"] = sent
	v["transport.sent.msgs"] = p.counter("transport.sent.msgs")
	if items := p.items(); items > 0 {
		v["transport.bytes_per_sample"] = sent / items
		v["proc.allocs_per_sample"] = float64(p.mallocs) / items
	}
	if wall > 0 {
		v["transport.goodput_mb_per_s"] = sent / 1e6 / wall
	}
	v["runtime.iterations"] = p.counter("runtime.iterations")
	v["runtime.pipeline.act.bytes"] = p.counter("runtime.pipeline.act.bytes")
	if epoch > 0 {
		v["runtime.ring_share"] = v["runtime.ring_allreduce_ms"] / 1e3 * sh.ringsPerEpoch / epoch
	}

	v["simnet.flows"] = float64(p.sim.Flows)
	v["simnet.bytes"] = float64(p.sim.Bytes)
	v["serve.batches"] = p.counter("serve.batches")
	v["serve.shed"] = p.counter("serve.shed")
	v["serve.max_queue_depth"] = p.gaugeMax("serve.queue.depth.max")
	if reqs := p.counter("serve.requests"); reqs > 0 {
		v["simnet.flows_per_request"] = float64(p.sim.Flows) / reqs
	}

	var admits []float64
	for _, o := range p.outs {
		admits = append(admits, o.admit)
	}
	v["server.admit_s"] = median(admits)

	v["proc.cpu_s"] = p.cpu
	v["proc.alloc_mb"] = float64(p.allocBytes) / 1e6
	v["proc.gc_cycles"] = float64(p.gcCycles)
	// Medians keep the cold first job of the untraced pass out of it.
	if b := median(base.walls); b > 0 {
		v["metrics.trace_overhead_frac"] = median(p.walls)/b - 1
	}

	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = v[m.Name]
	}
	return out
}

// averaged is each job value's mean over the pass's jobs that set it.
func averaged(p *pass) map[string]float64 {
	sum, n := map[string]float64{}, map[string]int{}
	for _, o := range p.outs {
		for k, x := range o.values {
			sum[k] += x
			n[k]++
		}
	}
	for k := range sum {
		sum[k] /= float64(n[k])
	}
	return sum
}

// printReported prints the workload-specific end-to-end results that
// apply to this workload.
func printReported(w io.Writer, p *pass, vals map[string]float64) {
	v := averaged(p)
	for k, x := range vals {
		v[k] = x
	}
	for _, m := range reported {
		if x, ok := v[m.Name]; ok {
			fmt.Fprintf(w, "%-30s %14.6g %-8s (%s is better; not gated)\n", m.Name, x, m.Unit, m.Better)
		}
	}
}

// writeTrace exports the benchmark's spans as a Chrome trace.
func writeTrace(spans *metrics.Registry, dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := spans.Snapshot().WriteChromeTrace(f); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
