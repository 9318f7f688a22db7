package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/pool"
	"shmgpu/internal/stats"
)

// runTraced runs one traced pass of w: under a CPU profile, with an
// observability plane recording cell and phase spans and a tick counter
// around each workload. It returns the pass and its per-layer values: every
// perLayer and sparseTimes metric except trace.overhead_frac, which
// needs the untraced passes.
func runTraced(w *benchWorkload, seed int64, chk *checker) (pass, map[string]float64, error) {
	plane, err := obs.Start(obs.Options{Tool: "bench"})
	if err != nil {
		return pass{}, nil, err
	}
	tr := &tracedPass{plane: plane}
	var prof bytes.Buffer
	cpu0, gc0 := cpuSeconds(), gcSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		plane.Close()
		return pass{}, nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	p, err := runPass(w, seed, tr)
	pprof.StopCPUProfile()
	cpu, gc := cpuSeconds()-cpu0, gcSeconds()-gc0
	plane.Close()
	if err != nil {
		return pass{}, nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return pass{}, nil, err
	}

	ticks := tr.ticks.Load()
	if w.sweep {
		// The Runner builds its workloads itself, so the sweep's ticks are
		// counted on a replay of its cells outside the Runner, whose
		// results must match the Runner's.
		var replay []gpu.Result
		replay, ticks = replaySweep(w)
		chk.check(w.cells, replay, nil)
	}

	vals := map[string]float64{
		"go.gc.cpu_s":        gc,
		"go.alloc_objects":   float64(p.mallocs),
		"telemetry.export_s": p.export.Seconds(),
		"gpu.ticks":          float64(ticks),
	}
	var total int64
	byLayer := layerNanos(samples)
	for _, n := range byLayer {
		total += n
	}
	for _, l := range layerNames() {
		vals[l+".self_s"] = ratio(float64(byLayer[l]), float64(total)) * cpu
	}
	addResultCounters(vals, p.results)
	cellS := addSpanTimes(vals, plane.Tracer().Snapshot(), w.sweep, p.wall.Seconds())
	vals["gpu.ff_skip_ratio"] = 1 - ratio(vals["gpu.ticks"], vals["gpu.cycles"])
	vals["gpu.ns_per_tick"] = ratio(cellS*1e9, vals["gpu.ticks"])
	vals["ns_per_cycle"] = ratio(cellS*1e9, vals["gpu.cycles"])
	return p, vals, nil
}

// replaySweep runs the sweep's cells directly, on the sweep's worker count,
// and returns their results and the ticks they executed.
func replaySweep(w *benchWorkload) ([]gpu.Result, uint64) {
	tr := &tracedPass{}
	results := make([]gpu.Result, len(w.cells))
	tasks := make([]func(), len(w.cells))
	for i := range w.cells {
		tasks[i] = func() { results[i] = runCell(w.cells[i], w.seedFor(0), tr) }
	}
	p := pool.New(sweepWorkers)
	defer p.Close()
	p.Run(tasks)
	return results, tr.ticks.Load()
}

// hostmemCounters are the host tier's registry counters reported as
// hostmem.<name>, from the "uvm_<name>" entries of the run registry.
var hostmemCounters = []string{
	"faults", "replays", "migrations_in", "evictions", "writebacks_dirty", "bytes_in", "thrash", "pref_late",
}

// addResultCounters adds the simulated statistics of a pass's results.
func addResultCounters(vals map[string]float64, results []gpu.Result) {
	var l1, l2, ctr, mac, bmt stats.CacheStats
	var traffic stats.Traffic
	var instr, cycles, prefetches, useful uint64
	var busCycles float64
	for i := range results {
		r := &results[i]
		instr += r.Instructions
		cycles += r.Cycles
		l1.Merge(&r.L1)
		l2.Merge(&r.L2)
		ctr.Merge(&r.Ctr)
		mac.Merge(&r.MAC)
		bmt.Merge(&r.BMT)
		traffic.Merge(&r.Traffic)
		busCycles += r.BusUtilization * float64(r.Cycles)
		for _, name := range hostmemCounters {
			vals["hostmem."+name] += float64(r.Reg.Get("uvm_" + name))
		}
		prefetches += r.Reg.Get("uvm_prefetches")
		useful += r.Reg.Get("uvm_pref_useful")
	}
	vals["gpu.instructions"] = float64(instr)
	vals["gpu.cycles"] = float64(cycles)
	vals["cache.l1.accesses"] = float64(l1.Accesses())
	vals["cache.l1.miss_ratio"] = l1.MissRate()
	vals["gpu.l2.accesses"] = float64(l2.Accesses())
	vals["gpu.l2.miss_ratio"] = l2.MissRate()
	vals["secmem.ctr.miss_ratio"] = ctr.MissRate()
	vals["secmem.mac.miss_ratio"] = mac.MissRate()
	vals["secmem.bmt.miss_ratio"] = bmt.MissRate()
	vals["secmem.meta_bytes"] = float64(traffic.MetadataBytes())
	vals["dram.data_bytes"] = float64(traffic.DataBytes())
	vals["dram.bus_util"] = ratio(busCycles, float64(cycles))
	vals["hostmem.pref_useful_ratio"] = ratio(float64(useful), float64(prefetches))
}

// addSpanTimes adds the values taken from a traced pass's spans: host time
// per run phase and, for the sweep, the Runner's cells, worker utilization
// over the pass and tail (the time from the first worker going idle to the
// last cell ending). It returns the summed cell time.
func addSpanTimes(vals map[string]float64, spans []obs.SpanRecord, sweep bool, wallS float64) float64 {
	var cellUS, setupUS, kernelUS, drainUS int64
	cells := 0
	lastEnd := map[string]int64{} // worker → end of its last cell
	for _, s := range spans {
		d := s.EndUS - s.StartUS
		switch s.Kind {
		case "cell":
			cells++
			cellUS += d
			if wk, ok := s.Attrs["worker"]; ok && s.EndUS > lastEnd[wk] {
				lastEnd[wk] = s.EndUS
			}
		case "phase":
			switch {
			case s.Name == "setup":
				setupUS += d
			case strings.HasPrefix(s.Name, "kernel"):
				kernelUS += d
			case strings.HasPrefix(s.Name, "drain"):
				drainUS += d
			}
		}
	}
	vals["phase.setup_s"] = float64(setupUS) / 1e6
	vals["phase.kernel_s"] = float64(kernelUS) / 1e6
	vals["phase.drain_s"] = float64(drainUS) / 1e6
	cellS := float64(cellUS) / 1e6
	var runnerCells, util, tailUS float64
	if sweep {
		runnerCells, util = float64(cells), ratio(cellS, sweepWorkers*wallS)
		var ends []int64
		for _, end := range lastEnd {
			ends = append(ends, end)
		}
		if len(ends) > 0 {
			tailUS = float64(slices.Max(ends) - slices.Min(ends))
		}
	}
	vals["experiments.cells"] = runnerCells
	vals["experiments.worker_util"] = util
	vals["experiments.tail_s"] = tailUS / 1e6
	return cellS
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the CPU time the process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// gcSeconds is the runtime's estimate of the CPU time spent in the garbage
// collector so far.
func gcSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
