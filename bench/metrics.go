package main

// metricDef names one reported metric. The end-to-end and per-layer lists
// below are the benchmark's contract and must match BENCHMARK.json at the
// repository root (TestDefinitionsMatchBenchmarkJSON checks this).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run, reported per workload.
//
// sim_ipc and meta_bw_overhead are simulated statistics: for a fixed seed
// they repeat exactly, so a change that only speeds up or simplifies the
// simulator must leave them bit-identical. Their bounds cover how much
// they move from seed to seed (oversub's quartiles lie 3.5% and 5.3%
// apart over ten seeds), since a benchmark run takes its seed as input.
// The wall-clock bounds cover the host's drift: on a 2-vCPU KVM guest the
// same cell runs 0.26 to 0.50 s over three minutes, and the quartiles of
// ten runs' wall_s lie up to 21% apart whatever the estimator.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "sim_ipc", Unit: "instr/cycle", Better: "higher", Bound: 0.12},
	{Name: "meta_bw_overhead", Unit: "ratio", Better: "lower", Bound: 0.16},
}

// perLayer are the metrics of a traced run, reported per workload. The
// layer self times listed here are those measurable on every workload.
var perLayer = []metricDef{
	{Name: "gpu.sm.self_s", Unit: "s", Better: "lower"},
	{Name: "gpu.instructions", Unit: "count", Better: "lower"},
	{Name: "cache.l1.accesses", Unit: "count", Better: "lower"},
	{Name: "cache.l1.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "workload.self_s", Unit: "s", Better: "lower"},
	{Name: "gpu.xbar.self_s", Unit: "s", Better: "lower"},
	{Name: "gpu.ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "gpu.cycles", Unit: "count", Better: "lower"},
	{Name: "gpu.ticks", Unit: "count", Better: "lower"},
	{Name: "gpu.ff_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gpu.l2.self_s", Unit: "s", Better: "lower"},
	{Name: "gpu.l2.accesses", Unit: "count", Better: "lower"},
	{Name: "gpu.l2.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "secmem.self_s", Unit: "s", Better: "lower"},
	{Name: "secmem.ctr.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "secmem.mac.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "secmem.bmt.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "secmem.meta_bytes", Unit: "B", Better: "lower"},
	{Name: "dram.self_s", Unit: "s", Better: "lower"},
	{Name: "dram.data_bytes", Unit: "B", Better: "lower"},
	{Name: "dram.bus_util", Unit: "ratio", Better: "higher"},
	{Name: "hostmem.faults", Unit: "count", Better: "lower"},
	{Name: "hostmem.replays", Unit: "count", Better: "lower"},
	{Name: "hostmem.migrations_in", Unit: "count", Better: "lower"},
	{Name: "hostmem.evictions", Unit: "count", Better: "lower"},
	{Name: "hostmem.writebacks_dirty", Unit: "count", Better: "lower"},
	{Name: "hostmem.bytes_in", Unit: "B", Better: "lower"},
	{Name: "hostmem.thrash", Unit: "count", Better: "lower"},
	{Name: "hostmem.pref_late", Unit: "count", Better: "lower"},
	{Name: "hostmem.pref_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "experiments.cells", Unit: "count", Better: "lower"},
	{Name: "experiments.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "go.gc.self_s", Unit: "s", Better: "lower"},
	{Name: "go.gc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "go.alloc_objects", Unit: "count", Better: "lower"},
	{Name: "ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "phase.setup_s", Unit: "s", Better: "lower"},
	{Name: "phase.kernel_s", Unit: "s", Better: "lower"},
	{Name: "phase.drain_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// sparseTimes are per-layer times that can read 0 on every run of some
// workload: the host tier runs only in oversub, the Runner and its
// telemetry sink only in fig12-sweep, the event horizon costs less than
// the profiler's 10 ms resolution outside oversub, and in fig12-sweep
// every sample falls under a Runner frame, which leaves "other" empty.
// They are printed and kept in -json reports but left out of the result
// line and of BENCHMARK.json.
var sparseTimes = []metricDef{
	{Name: "gpu.horizon.self_s", Unit: "s", Better: "lower"},
	{Name: "other.self_s", Unit: "s", Better: "lower"},
	{Name: "hostmem.self_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.self_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.export_s", Unit: "s", Better: "lower"},
	{Name: "experiments.self_s", Unit: "s", Better: "lower"},
	{Name: "experiments.tail_s", Unit: "s", Better: "lower"},
}

// metric is one measured metric of one workload: the reported value (the
// median of its samples), the samples' summary, and the samples.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
	Samples []float64 `json:"samples"`
}

func newMetric(def metricDef, samples []float64) metric {
	s := summarize(samples)
	return metric{Name: def.Name, Unit: def.Unit, Value: s.Median, summary: s, Samples: samples}
}
