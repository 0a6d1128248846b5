package main

// metricSpec names one metric the benchmark prints: its unit and which
// direction is better. Bound is the share of the parent's median an
// end-to-end metric may worsen by before a change counts as a
// regression; per-layer and report metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees on every workload. Each
// is defined on all four workloads (README.md gives the per-workload
// meaning), is never 0 on a healthy run, and is gated by its bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"quality_frac", "ratio", "higher", 0.2},
	{"ok_frac", "ratio", "higher", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.2},
}

// reported are the workload-specific end-to-end results: printed by
// name on the workloads they apply to, checked for sanity, and left out
// of the gated JSON line because they do not exist on every workload.
var reported = []metricSpec{
	{"samples_per_epoch", "count", "higher", 0},
	{"final_acc", "ratio", "higher", 0},
	{"requests_per_s", "1/s", "higher", 0},
	{"sim_epoch_s", "s", "lower", 0},
	{"sim_energy_kj", "kJ", "lower", 0},
	{"sim_p50_ms", "ms", "lower", 0},
	{"sim_p99_ms", "ms", "lower", 0},
	{"slo_attain", "ratio", "higher", 0},
	{"sim_capacity_rps", "1/s", "higher", 0},
	{"fail_frac", "ratio", "lower", 0},
}

// perLayer comes from the traced run only: counters the layers export,
// kernel timing, and the layer probes. README.md maps each to the
// end-to-end metric it should move.
var perLayer = []metricSpec{
	{"tensor.gemm.ops", "count", "lower", 0},
	{"tensor.gemm.gflop", "GFLOP", "lower", 0},
	{"tensor.gemm.busy_s", "s", "lower", 0},
	{"tensor.gemm.gflops_per_s", "GFLOP/s", "higher", 0},
	{"tensor.im2col.ops", "count", "lower", 0},
	{"nn.conv.fwd", "count", "lower", 0},
	{"nn.conv.bwd", "count", "lower", 0},
	{"nn.dense.fwd", "count", "lower", 0},
	{"nn.dense.bwd", "count", "lower", 0},
	{"nn.forward_ms", "ms", "lower", 0},
	{"nn.backward_ms", "ms", "lower", 0},
	{"nn.sgd_step_ms", "ms", "lower", 0},
	{"quant.fakequant_ms", "ms", "lower", 0},
	{"quant.int8_gemm_ms", "ms", "lower", 0},
	{"parallel.cpu_util", "ratio", "higher", 0},
	{"core.epoch_s_p50", "s", "lower", 0},
	{"core.sim.compute_s", "sim_s", "lower", 0},
	{"core.sim.sync_s", "sim_s", "lower", 0},
	{"core.sim.update_s", "sim_s", "lower", 0},
	{"collective.average_ms", "ms", "lower", 0},
	{"transport.sent.bytes", "bytes", "lower", 0},
	{"transport.sent.msgs", "count", "lower", 0},
	{"transport.bytes_per_sample", "bytes", "lower", 0},
	{"transport.goodput_mb_per_s", "MB/s", "higher", 0},
	{"transport.frame_rtt_us", "us", "lower", 0},
	{"runtime.iterations", "count", "lower", 0},
	{"runtime.ring_allreduce_ms", "ms", "lower", 0},
	{"runtime.ring_share", "ratio", "lower", 0},
	{"runtime.pipeline.act.bytes", "bytes", "lower", 0},
	{"plan.search_s", "s", "lower", 0},
	{"plan.candidates", "count", "lower", 0},
	{"plan.bubble_frac", "ratio", "lower", 0},
	{"simnet.flows", "count", "lower", 0},
	{"simnet.bytes", "bytes", "lower", 0},
	{"simnet.simulate_us", "us", "lower", 0},
	{"serve.batches", "count", "lower", 0},
	{"serve.batch_fill", "ratio", "higher", 0},
	{"serve.max_queue_depth", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.predict_us", "us", "lower", 0},
	{"serve.sched_us_per_request", "us", "lower", 0},
	{"simnet.flows_per_request", "count", "lower", 0},
	{"dataset.generate_s", "s", "lower", 0},
	{"server.admit_s", "s", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.alloc_mb", "MB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.allocs_per_sample", "count", "lower", 0},
	{"metrics.trace_overhead_frac", "ratio", "lower", 0},
}
