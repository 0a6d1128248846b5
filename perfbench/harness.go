package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	runmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"socflow"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/simnet"
	"socflow/internal/tensor"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// short shrinks every workload to a smoke test (one small job).
	short bool
	nproc int
}

// jobs is how many facade jobs one pass makes. It depends only on the
// run length, never on how fast jobs finish, so a seed always names
// the same inputs. The traced run splits its time between two passes.
func (rc runConfig) jobs(jobSeconds float64) int {
	if rc.short {
		return 1
	}
	seconds := rc.seconds
	if rc.trace {
		seconds /= 2
	}
	return max(minJobs, int(math.Round(seconds/jobSeconds)))
}

// minJobs keeps the medians of a short run meaningful.
const minJobs = 3

// jobSeed derives job i's seed — dataset, weights and arrivals — from
// the run seed alone (splitmix64 of the pair).
func jobSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // the facade reads seed 0 as "use the default"
	}
	return z
}

// jobEnv is what one facade job gets from the harness.
type jobEnv struct {
	index int
	seed  uint64
	short bool
	nproc int
	// client submits to a control plane private to the run.
	client *socflow.Client
	// spans records the benchmark's own spans; nil when untraced.
	spans *metrics.Registry
}

func (e *jobEnv) options(reg *metrics.Registry) []socflow.Option {
	return []socflow.Option{socflow.WithParallelism(e.nproc), socflow.WithMetrics(reg)}
}

// unit is one progress step of a job: an epoch, or an hourly serving
// slice, with the samples it processed.
type unit struct{ items, seconds float64 }

// jobOut is what one facade job measured and checked.
type jobOut struct {
	// first is submit → first progress event; firstItems the samples
	// that first unit processed.
	first, firstItems float64
	// units are the progress steps after the first.
	units []unit
	// wall is submit → report.
	wall float64
	// admit is submit → running (traced passes only, else 0).
	admit float64
	// items is all samples the job processed.
	items float64
	// quality is the job's final validation accuracy (training) or SLO
	// attainment (serving).
	quality float64
	// ok of attempted operations succeeded: requests served on
	// serve-peak, the job itself on the training workloads.
	ok, attempted int
	// failures lists the output checks that failed.
	failures []string
	// accs are the per-epoch accuracies (training workloads).
	accs []float64
	// topology is the SoC placement a distributed job reported.
	topology [][]int
	// reg is the job's metrics registry at the end of the job.
	reg *metrics.RunReport
	// values holds workload-specific results, reported or per-layer by
	// name, averaged over the pass's jobs.
	values map[string]float64
}

func (o *jobOut) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// progress stamps a job's progress events as they arrive and, when
// traced, records each unit as a span.
type progress struct {
	submit time.Time
	spans  *metrics.Registry
	tid    int
	name   string

	mu     sync.Mutex
	stamps []time.Time
	items  []float64
	open   *metrics.ActiveSpan
}

func startProgress(spans *metrics.Registry, tid int, name string) *progress {
	return &progress{submit: time.Now(), spans: spans, tid: tid, name: name, open: spans.BeginSpan(name, "progress", tid)}
}

// mark records one progress event that processed items samples.
func (p *progress) mark(items float64) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stamps = append(p.stamps, now)
	p.items = append(p.items, items)
	p.open.End()
	p.open = p.spans.BeginSpan(p.name, "progress", p.tid)
}

// stampEpochs marks one progress event per epoch event on reg. Subscribers
// run synchronously on the emitting training goroutine, so the stamps
// carry no scheduling delay.
func (p *progress) stampEpochs(reg *metrics.Registry, items float64) {
	reg.Subscribe(func(e metrics.Event) {
		if e.Kind == metrics.KindEpoch {
			p.mark(items)
		}
	})
}

// fill copies the stamps into out and returns how many events arrived.
func (p *progress) fill(out *jobOut) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.stamps) == 0 {
		return 0
	}
	out.first = p.stamps[0].Sub(p.submit).Seconds()
	out.firstItems = p.items[0]
	for i := 1; i < len(p.stamps); i++ {
		out.units = append(out.units, unit{p.items[i], p.stamps[i].Sub(p.stamps[i-1]).Seconds()})
	}
	return len(p.stamps)
}

// watchAdmission polls the job's status until it leaves the queue and
// stores submit → running in out.admit. The returned function stops
// the poller and waits for it.
func watchAdmission(ctx context.Context, status func(context.Context) (socflow.JobStatus, error), submit time.Time, out *jobOut) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			st, err := status(ctx)
			if err != nil {
				return
			}
			if st.State != "queued" {
				out.admit = time.Since(submit).Seconds()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return func() { cancel(); <-done }
}

// pass is one closed-loop sequence of jobs with the process counters
// taken around it.
type pass struct {
	outs   []*jobOut
	errs   []error
	walls  []float64 // each job's submit → report
	kernel tensor.KernelStats
	layers nn.LayerStats
	sim    simnet.Stats
	cpu    float64 // process CPU seconds
	// allocBytes, mallocs and gcCycles are the runtime's allocation
	// and collection counts over the pass.
	allocBytes, mallocs uint64
	gcCycles            uint32
	heap                float64 // peak live heap bytes, sampled
}

// runPass makes n jobs of w one after another and measures them.
func runPass(ctx context.Context, w workload, rc runConfig, n int, spans *metrics.Registry) (*pass, error) {
	srv := socflow.NewServer(socflow.ServerConfig{TotalSoCs: 1024, QueueLimit: 4})
	defer srv.Close()
	client := srv.Client()

	p := &pass{}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k0, l0, s0, c0 := tensor.KernelSnapshot(), nn.LayerSnapshot(), simnet.SnapshotStats(), cpuSeconds()
	stopHeap := sampleHeap(&p.heap)
	for i := 0; i < n; i++ {
		env := &jobEnv{index: i, seed: jobSeed(rc.seed, i), short: rc.short, nproc: rc.nproc, client: client, spans: spans}
		span := spans.BeginSpan("job", w.info().name, i)
		out, err := w.job(ctx, env)
		span.End()
		if err != nil {
			if ctx.Err() != nil {
				stopHeap()
				return nil, ctx.Err()
			}
			p.errs = append(p.errs, fmt.Errorf("job %d (seed %d): %w", i, env.seed, err))
			continue
		}
		for k, f := range out.failures {
			out.failures[k] = fmt.Sprintf("job %d (seed %d): %s", i, env.seed, f)
		}
		p.walls = append(p.walls, out.wall)
		p.outs = append(p.outs, out)
	}
	stopHeap()
	p.kernel = tensor.KernelSnapshot().Delta(k0)
	p.layers = nn.LayerSnapshot().Delta(l0)
	p.sim = simnet.SnapshotStats().Delta(s0)
	p.cpu = cpuSeconds() - c0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcCycles = after.NumGC - before.NumGC
	return p, nil
}

// wall is the time the pass's jobs took, submit to report.
func (p *pass) wall() float64 {
	var sum float64
	for _, w := range p.walls {
		sum += w
	}
	return sum
}

// failures lists every error and failed check of the pass.
func (p *pass) failures() []string {
	var fs []string
	for _, err := range p.errs {
		fs = append(fs, err.Error())
	}
	for _, o := range p.outs {
		fs = append(fs, o.failures...)
	}
	return fs
}

// failedJobs counts jobs that errored or failed a check.
func (p *pass) failedJobs() int {
	n := len(p.errs)
	for _, o := range p.outs {
		if len(o.failures) > 0 {
			n++
		}
	}
	return n
}

// throughput is samples per wall second over every steady progress
// unit of the pass: total samples over total time. On a host whose
// speed flips between two levels from one unit to the next, the
// time-weighted mean converges where a median jumps between the modes.
func (p *pass) throughput() float64 {
	var items, seconds float64
	for _, o := range p.outs {
		i, s := o.steady()
		items += i
		seconds += s
	}
	if seconds == 0 {
		return 0
	}
	return items / seconds
}

// steady totals the job's progress units after the first.
func (o *jobOut) steady() (items, seconds float64) {
	for _, u := range o.units {
		items += u.items
		seconds += u.seconds
	}
	return items, seconds
}

// setup is the median over jobs of submit → first progress event minus
// that first unit's cost at the job's own steady rate.
func (p *pass) setup() float64 {
	var s []float64
	for _, o := range p.outs {
		if items, seconds := o.steady(); items > 0 {
			s = append(s, o.first-o.firstItems*seconds/items)
		}
	}
	return median(s)
}

// mean averages f over the pass's jobs.
func (p *pass) mean(f func(*jobOut) float64) float64 {
	if len(p.outs) == 0 {
		return 0
	}
	var sum float64
	for _, o := range p.outs {
		sum += f(o)
	}
	return sum / float64(len(p.outs))
}

// counter sums a registry counter over the pass's jobs.
func (p *pass) counter(name string) float64 {
	var sum float64
	for _, o := range p.outs {
		if o.reg != nil {
			sum += float64(o.reg.Counters[name])
		}
	}
	return sum
}

// gaugeMax is a registry gauge's largest value over the pass's jobs.
func (p *pass) gaugeMax(name string) float64 {
	var m float64
	for _, o := range p.outs {
		if o.reg != nil {
			m = math.Max(m, o.reg.Gauges[name])
		}
	}
	return m
}

// epochWallP50 is the median wall time of the job loop's unit over the
// pass: the epochs the training loop recorded in its registry, or, on a
// job without epochs (serving), its progress units.
func (p *pass) epochWallP50() float64 {
	var s []float64
	for _, o := range p.outs {
		if o.reg != nil && len(o.reg.Epochs) > 0 {
			for _, e := range o.reg.Epochs {
				s = append(s, e.WallSeconds)
			}
			continue
		}
		for _, u := range o.units {
			s = append(s, u.seconds)
		}
	}
	return median(s)
}

func (p *pass) items() float64 {
	var n float64
	for _, o := range p.outs {
		n += o.items
	}
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sampleHeap tracks the peak of the live heap (objects, including those
// not yet swept) every few milliseconds into *peak until stop is called.
func sampleHeap(peak *float64) (stop func()) {
	const name = "/memory/classes/heap/objects:bytes"
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		sample := []runmetrics.Sample{{Name: name}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			runmetrics.Read(sample)
			if sample[0].Value.Kind() == runmetrics.KindUint64 {
				*peak = math.Max(*peak, float64(sample[0].Value.Uint64()))
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); <-finished }
}
