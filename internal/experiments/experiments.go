// Package experiments regenerates every table and figure of the paper's
// evaluation section: workload characterization (Fig. 5), predictor
// accuracy breakdowns (Figs. 10, 11), overall performance (Fig. 12),
// optimization breakdown (Fig. 13), bandwidth overheads (Fig. 14), energy
// (Fig. 15), the L2 victim-cache study (Fig. 16), and the static tables
// (VII hardware utilization check, IX hardware overhead).
//
// A Runner caches simulation results keyed by (workload, scheme) so
// figures sharing runs (12, 13, 14, 15 all reuse the same sweeps) pay for
// each simulation once. Runs are independent and deterministic, so the
// prefetch pass executes them on a worker pool.
package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"shmgpu/internal/detectors"
	"shmgpu/internal/energy"
	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/pool"
	"shmgpu/internal/report"
	"shmgpu/internal/scheme"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// Runner executes and caches simulation runs.
type Runner struct {
	cfg       gpu.Config
	workloads []string

	// workers bounds the Prefetch pool; 0 selects runtime.NumCPU().
	workers int

	// When sink is non-nil every uncached run is instrumented with a
	// telemetry collector (config tcfg) handed to sink on completion.
	tcfg telemetry.Config
	sink func(gpu.Result, *telemetry.Collector)

	// ops, when non-nil, is the live observability plane: every uncached
	// run gets a cell span, a progress heartbeat, and — when the plane's
	// watchdog is armed to cancel — an abandon path that lets the sweep
	// complete with a stalled cell reported instead of hanging.
	ops *obs.Plane

	mu    sync.Mutex
	cache map[string]gpu.Result
	err   error // first refused run, see Err
}

// SetWorkers bounds the Prefetch worker pool (paperbench -workers).
// 0 restores the default, runtime.NumCPU(). Each worker runs one whole
// simulation at a time; a run itself is single-threaded.
func (r *Runner) SetWorkers(n int) { r.workers = n }

// SetTelemetrySink instruments every subsequent uncached run with a fresh
// collector and passes it to sink together with the result. Prefetch runs
// jobs on a worker pool, so sink must be safe for concurrent use (writing to
// distinct per-run files is sufficient). A nil sink disables instrumentation.
func (r *Runner) SetTelemetrySink(tcfg telemetry.Config, sink func(gpu.Result, *telemetry.Collector)) {
	r.tcfg = tcfg
	r.sink = sink
}

// SetOps attaches a live observability plane (nil detaches). Attach before
// the first run; the plane outlives the runner and is closed by its owner.
func (r *Runner) SetOps(p *obs.Plane) { r.ops = p }

// NewRunner builds a runner over the given GPU configuration and workload
// list (empty list = the paper's 15 memory-intensive workloads).
func NewRunner(cfg gpu.Config, workloads []string) *Runner {
	if len(workloads) == 0 {
		workloads = workload.MemoryIntensive()
	}
	return &Runner{cfg: cfg, workloads: workloads, cache: map[string]gpu.Result{}}
}

// QuickConfig returns a scaled-down GPU configuration for fast smoke runs
// (CI, -short tests): fewer SMs and a tighter cycle budget. Shapes remain,
// absolute averages get noisier.
func QuickConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.SMs = 10
	cfg.WarpsPerSM = 16
	cfg.MaxCycles = 120_000
	return cfg
}

// Workloads returns the runner's workload list.
func (r *Runner) Workloads() []string { return append([]string(nil), r.workloads...) }

func key(wl string, sch scheme.Scheme, accuracy bool) string {
	if accuracy {
		return wl + "/" + sch.Name + "/acc"
	}
	return wl + "/" + sch.Name
}

// Run simulates one workload under one scheme (cached).
func (r *Runner) Run(wl string, sch scheme.Scheme) gpu.Result {
	return r.run(wl, sch, false)
}

// RunWithAccuracy simulates with the Fig. 10/11 accuracy harness enabled.
func (r *Runner) RunWithAccuracy(wl string, sch scheme.Scheme) gpu.Result {
	return r.run(wl, sch, true)
}

func (r *Runner) run(wl string, sch scheme.Scheme, accuracy bool) gpu.Result {
	return r.runOn(-1, wl, sch, accuracy)
}

// runOn is run with the identity of the pool worker executing it (-1 when
// not on a pool), threaded into the cell span. A run Execute refuses (an
// invalid configuration or workload) is recorded for Err and yields an
// empty Result.
func (r *Runner) runOn(worker int, wl string, sch scheme.Scheme, accuracy bool) gpu.Result {
	k := key(wl, sch, accuracy)
	r.mu.Lock()
	if res, ok := r.cache[k]; ok {
		r.mu.Unlock()
		return res
	}
	r.mu.Unlock()

	spec := RunSpec{Config: r.cfg, Workload: wl, Scheme: sch, Observe: r.ops.BeginRun(k)}
	spec.Scheme.Options.TrackAccuracy = accuracy
	if r.sink != nil {
		spec.Telemetry = &r.tcfg
	}
	orun := spec.Observe
	if orun != nil && worker >= 0 {
		orun.Span().Annotate("worker", strconv.Itoa(worker))
	}
	var out RunOutput
	var err error
	if orun == nil || !r.ops.CanCancel() {
		out, err = Execute(spec)
	} else {
		s := spec // the goroutine's copy, heap-allocated only on this path
		out, err = r.abandonable(orun, func() (RunOutput, error) { return Execute(s) })
	}
	res := out.Result
	res.Workload, res.Scheme = wl, sch.Name
	orun.Done(res.Cycles, res.Completed)
	if err != nil {
		r.fail(fmt.Errorf("experiments: %s: %w", k, err))
	} else if r.sink != nil && !res.Cancelled {
		r.sink(res, out.Collector)
	}

	r.mu.Lock()
	r.cache[k] = res
	r.mu.Unlock()
	return res
}

// fail records the first refused run for Err.
func (r *Runner) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Err reports the first run the runner could not start (an invalid
// configuration or workload). Figures built after such a run used an
// empty Result for that cell.
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// abandonable executes run under a stall watchdog armed to cancel: the
// simulation runs on its own goroutine, and the watchdog's abandon signal
// (plus a grace period for the tick loop to notice the cancel flag)
// unblocks the sweep with a placeholder Result marked Cancelled. A run
// that never reaches another tick boundary leaks its goroutine — that is
// exactly the wedged state the diagnostic bundle documents.
func (r *Runner) abandonable(orun *obs.Run, run func() (RunOutput, error)) (RunOutput, error) {
	type ran struct {
		out RunOutput
		err error
	}
	ch := make(chan ran, 1)
	go func() { out, err := run(); ch <- ran{out, err} }() //shm:parallel-ok — joined via ch or deliberately abandoned on watchdog cancel
	select {
	case x := <-ch:
		return x.out, x.err
	case <-orun.Abandoned():
		select {
		case x := <-ch:
			return x.out, x.err
		case <-time.After(r.ops.CancelGrace()):
			return RunOutput{Result: gpu.Result{Cancelled: true}}, nil
		}
	}
}

// job describes one simulation to prefetch.
type job struct {
	wl       string
	sch      scheme.Scheme
	accuracy bool
}

// Prefetch runs the given (workload × scheme) cross product on the shared
// fixed worker pool (internal/pool), filling the cache. Worker count comes from
// SetWorkers, defaulting to runtime.NumCPU().
func (r *Runner) Prefetch(schemes []scheme.Scheme, accuracy bool) {
	var jobs []job
	for _, wl := range r.workloads {
		for _, sch := range schemes {
			jobs = append(jobs, job{wl, sch, accuracy})
		}
	}
	if len(jobs) == 0 {
		return
	}
	workers := r.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	tasks := make([]func(worker int), len(jobs))
	for i := range jobs {
		j := jobs[i]
		tasks[i] = func(worker int) { r.runOn(worker, j.wl, j.sch, j.accuracy) }
	}
	p := pool.New(workers)
	defer p.Close()
	p.RunTagged(tasks)
}

// normalizedIPC returns scheme IPC / baseline IPC for a workload.
func (r *Runner) normalizedIPC(wl string, sch scheme.Scheme) float64 {
	base := r.Run(wl, scheme.Baseline)
	run := r.Run(wl, sch)
	if base.IPC() == 0 {
		return 0
	}
	return run.IPC() / base.IPC()
}

// Fig5 reproduces the access-characterization figure: the fraction of
// off-chip accesses (L2 misses and write-backs) that target streaming data
// and read-only data, per workload. Measured on the oracle-truth design so
// every access is classified against ground truth.
func (r *Runner) Fig5() *report.Table {
	t := report.NewTable("Figure 5: streaming and read-only access ratios",
		"benchmark", "streaming", "read-only")
	for _, wl := range r.workloads {
		res := r.Run(wl, scheme.SHMUpperBound)
		total := float64(res.Reg.Get("access_total"))
		if total == 0 {
			total = 1
		}
		t.AddRow(wl,
			report.Percent(float64(res.Reg.Get("access_streaming"))/total),
			report.Percent(float64(res.Reg.Get("access_readonly"))/total))
	}
	return t
}

// Fig10 reproduces the read-only prediction breakdown.
func (r *Runner) Fig10() *report.Table {
	t := report.NewTable("Figure 10: read-only prediction breakdown",
		"benchmark", "correct", "MP_Init", "MP_Aliasing", "accuracy")
	var accs []float64
	for _, wl := range r.workloads {
		res := r.RunWithAccuracy(wl, scheme.SHM)
		ps := res.ROAccuracy
		accs = append(accs, ps.Accuracy())
		t.AddRow(wl,
			report.Percent(ps.Fraction(stats.OutcomeCorrect)),
			report.Percent(ps.Fraction(stats.OutcomeMPInit)),
			report.Percent(ps.Fraction(stats.OutcomeMPAliasing)),
			report.Percent(ps.Accuracy()))
	}
	t.AddRow("average", "", "", "", report.Percent(report.Mean(accs)))
	return t
}

// Fig11 reproduces the streaming prediction breakdown.
func (r *Runner) Fig11() *report.Table {
	t := report.NewTable("Figure 11: streaming prediction breakdown",
		"benchmark", "correct", "MP_Init", "MP_Runtime_RO", "MP_Runtime_NonRO", "MP_Aliasing", "accuracy")
	var accs []float64
	for _, wl := range r.workloads {
		res := r.RunWithAccuracy(wl, scheme.SHM)
		ps := res.StreamAccuracy
		accs = append(accs, ps.Accuracy())
		t.AddRow(wl,
			report.Percent(ps.Fraction(stats.OutcomeCorrect)),
			report.Percent(ps.Fraction(stats.OutcomeMPInit)),
			report.Percent(ps.Fraction(stats.OutcomeMPRuntimeRO)),
			report.Percent(ps.Fraction(stats.OutcomeMPRuntimeNonRO)),
			report.Percent(ps.Fraction(stats.OutcomeMPAliasing)),
			report.Percent(ps.Accuracy()))
	}
	t.AddRow("average", "", "", "", "", "", report.Percent(report.Mean(accs)))
	return t
}

// fig12Schemes are the designs compared in the overall-performance figure.
func fig12Schemes() []scheme.Scheme {
	return []scheme.Scheme{
		scheme.Naive, scheme.CommonCtr, scheme.PSSM, scheme.SHM, scheme.SHMUpperBound,
	}
}

// Fig12 reproduces the normalized-IPC comparison.
func (r *Runner) Fig12() *report.Table {
	schemes := fig12Schemes()
	cols := []string{"benchmark"}
	for _, s := range schemes {
		cols = append(cols, s.Name)
	}
	t := report.NewTable("Figure 12: normalized IPC of secure GPU memory designs", cols...)
	sums := make([]float64, len(schemes))
	for _, wl := range r.workloads {
		row := []interface{}{wl}
		for i, s := range schemes {
			n := r.normalizedIPC(wl, s)
			sums[i] += n
			row = append(row, n)
		}
		t.AddRow(row...)
	}
	avg := []interface{}{"average"}
	for i := range schemes {
		avg = append(avg, sums[i]/float64(len(r.workloads)))
	}
	t.AddRow(avg...)
	return t
}

// Fig13 reproduces the optimization breakdown.
func (r *Runner) Fig13() *report.Table {
	schemes := []scheme.Scheme{
		scheme.PSSM, scheme.PSSMCtr, scheme.SHMReadOnly, scheme.SHM, scheme.SHMCctr,
	}
	cols := []string{"benchmark"}
	for _, s := range schemes {
		cols = append(cols, s.Name)
	}
	t := report.NewTable("Figure 13: performance impact of individual optimizations", cols...)
	sums := make([]float64, len(schemes))
	for _, wl := range r.workloads {
		row := []interface{}{wl}
		for i, s := range schemes {
			n := r.normalizedIPC(wl, s)
			sums[i] += n
			row = append(row, n)
		}
		t.AddRow(row...)
	}
	avg := []interface{}{"average"}
	for i := range schemes {
		avg = append(avg, sums[i]/float64(len(r.workloads)))
	}
	t.AddRow(avg...)
	return t
}

// Fig14 reproduces the bandwidth-overhead comparison.
func (r *Runner) Fig14() *report.Table {
	schemes := []scheme.Scheme{scheme.Naive, scheme.PSSM, scheme.SHMReadOnly, scheme.SHM}
	cols := []string{"benchmark"}
	for _, s := range schemes {
		cols = append(cols, s.Name)
	}
	t := report.NewTable("Figure 14: security-metadata bandwidth overhead (vs regular data)", cols...)
	sums := make([]float64, len(schemes))
	for _, wl := range r.workloads {
		row := []interface{}{wl}
		for i, s := range schemes {
			ov := r.Run(wl, s).BandwidthOverhead()
			sums[i] += ov
			row = append(row, report.Percent(ov))
		}
		t.AddRow(row...)
	}
	avg := []interface{}{"average"}
	for i := range schemes {
		avg = append(avg, report.Percent(sums[i]/float64(len(r.workloads))))
	}
	t.AddRow(avg...)
	return t
}

// activityOf converts a run into the energy model's input.
func activityOf(res gpu.Result) energy.Activity {
	return energy.Activity{
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		DRAMBytes:    res.Traffic.TotalBytes(),
		L2Accesses:   res.L2.Accesses(),
		L1Accesses:   res.L1.Accesses(),
		MDCAccesses:  res.Ctr.Accesses() + res.MAC.Accesses() + res.BMT.Accesses(),
	}
}

// Fig15 reproduces the normalized energy-per-instruction comparison.
func (r *Runner) Fig15() *report.Table {
	schemes := []scheme.Scheme{scheme.Naive, scheme.CommonCtr, scheme.PSSM, scheme.SHM}
	cols := []string{"benchmark"}
	for _, s := range schemes {
		cols = append(cols, s.Name)
	}
	t := report.NewTable("Figure 15: normalized energy per instruction", cols...)
	model := energy.Default()
	sums := make([]float64, len(schemes))
	for _, wl := range r.workloads {
		base := activityOf(r.Run(wl, scheme.Baseline))
		row := []interface{}{wl}
		for i, s := range schemes {
			n := model.Normalized(activityOf(r.Run(wl, s)), base)
			sums[i] += n
			row = append(row, n)
		}
		t.AddRow(row...)
	}
	avg := []interface{}{"average"}
	for i := range schemes {
		avg = append(avg, sums[i]/float64(len(r.workloads)))
	}
	t.AddRow(avg...)
	return t
}

// Fig16 reproduces the L2-victim-cache study.
func (r *Runner) Fig16() *report.Table {
	t := report.NewTable("Figure 16: normalized IPC with L2 as metadata victim cache",
		"benchmark", "SHM", "SHM_vL2", "gain", "victim hits")
	var sums [2]float64
	for _, wl := range r.workloads {
		shm := r.normalizedIPC(wl, scheme.SHM)
		vl2 := r.normalizedIPC(wl, scheme.SHMvL2)
		sums[0] += shm
		sums[1] += vl2
		res := r.Run(wl, scheme.SHMvL2)
		t.AddRow(wl, shm, vl2, report.Percent(vl2-shm), res.VictimHits)
	}
	n := float64(len(r.workloads))
	t.AddRow("average", sums[0]/n, sums[1]/n, report.Percent((sums[1]-sums[0])/n), "")
	return t
}

// oversubRatios are the sweep points of the oversubscription study, in
// decreasing device-frame capacity (fraction of the workload footprint
// resident on-device; below 1.0 the host tier demand-migrates the rest).
var oversubRatios = []float64{0.75, 0.5, 0.25}

// oversubWorkloads picks the sweep's benchmark subset: a fixed mix of
// streaming-dominated and irregular workloads, restricted to the runner's
// workload list so -workloads still narrows the sweep. The full 15-workload
// cross product would triple the sweep for no additional shape — the subset
// covers the two degradation regimes (the streaming cliff, where LRU
// refaults every streamed page each pass, and the graceful curve of
// reuse-heavy access).
func oversubWorkloads(all []string) []string {
	preferred := map[string]bool{"atax": true, "bfs": true, "mvt": true, "streamcluster": true}
	var out []string
	for _, wl := range all {
		if preferred[wl] {
			out = append(out, wl)
		}
	}
	if len(out) == 0 {
		out = all
	}
	return out
}

// oversubPrefetchVariants are the migration-ahead policies the sweep runs
// on top of the SHM design, each as its own table row. Demand-only SHM
// stays in the scheme rows; these isolate what the prefetcher buys at the
// same ratio.
var oversubPrefetchVariants = []struct {
	name   string // row label in the table
	policy string // gpu.Config.UVMPrefetch value
}{
	{"SHM+stride", "stride"},
	{"SHM+stream", "stream"},
}

// FigOversub reproduces the heterogeneous-memory extension study: IPC under
// the host-backed tier at decreasing resident ratios, for the baseline and
// every Fig. 12 design, normalized to the insecure tier-off run of the same
// workload. The "resident" column (tier off, everything device-resident) is
// each row's departure point; the ratio columns add demand paging over the
// modeled PCIe link. Cells that saturate the cycle budget while thrashing
// still report throughput (instructions over the budget), which is exactly
// the degradation the sweep is after.
//
// Each ratio contributes two columns: normalized IPC (r=…) and the demand
// fault count (f=…), so the migration-ahead rows (SHM+stride, SHM+stream —
// the SHM design with the tier's prefetcher enabled) show both effects at
// once: fewer faults and the IPC they buy back. Their "resident" cell
// reuses the SHM tier-off run — at ratio >= 1 every prefetch policy is
// provably idle, so the runs are byte-identical.
//
// Ratio cells run on per-ratio sub-runners (the cache key is only
// workload/scheme, so each ratio and each prefetch policy needs its own
// cache); the tier-off cells come from the parent runner and are shared
// with the other figures. The sub-runners are deliberately unobserved —
// their cell names would collide with the parent's in the ops plane and
// the per-run telemetry dumps.
func (r *Runner) FigOversub() *report.Table {
	schemes := append([]scheme.Scheme{scheme.Baseline}, fig12Schemes()...)
	wls := oversubWorkloads(r.workloads)

	subs := make([]*Runner, len(oversubRatios))
	for i, ratio := range oversubRatios {
		cfg := r.cfg
		cfg.HostTier = true
		cfg.OversubRatio = ratio
		subs[i] = NewRunner(cfg, wls)
	}
	// psubs[variant][ratio]: the SHM-only migration-ahead sweeps.
	psubs := make([][]*Runner, len(oversubPrefetchVariants))
	for pi, pv := range oversubPrefetchVariants {
		psubs[pi] = make([]*Runner, len(oversubRatios))
		for i, ratio := range oversubRatios {
			cfg := r.cfg
			cfg.HostTier = true
			cfg.OversubRatio = ratio
			cfg.UVMPrefetch = pv.policy
			psubs[pi][i] = NewRunner(cfg, wls)
		}
	}

	// One pool over every cell the table needs — the parent's tier-off
	// cells (restricted to the sweep subset; shared with the other figures
	// through the parent cache), all three ratio sweeps, and the prefetch
	// variants (SHM only).
	var tasks []func(worker int)
	for _, wl := range wls {
		for _, sch := range schemes {
			wl, sch := wl, sch
			tasks = append(tasks, func(worker int) { r.runOn(worker, wl, sch, false) })
			for _, sub := range subs {
				sub := sub
				tasks = append(tasks, func(worker int) { sub.runOn(worker, wl, sch, false) })
			}
		}
		for pi := range oversubPrefetchVariants {
			for _, sub := range psubs[pi] {
				wl, sub := wl, sub
				tasks = append(tasks, func(worker int) { sub.runOn(worker, wl, scheme.SHM, false) })
			}
		}
	}
	workers := r.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	p := pool.New(workers)
	p.RunTagged(tasks)
	p.Close()

	cols := []string{"benchmark", "scheme", "resident"}
	for _, ratio := range oversubRatios {
		cols = append(cols, fmt.Sprintf("r=%.2f", ratio), fmt.Sprintf("f=%.2f", ratio))
	}
	t := report.NewTable("Oversubscription sweep: normalized IPC and demand faults with the host-backed tier", cols...)

	nRows := len(schemes) + len(oversubPrefetchVariants)
	sums := make([][]float64, nRows)   // [row][1+ratio] normalized IPC
	fsums := make([]([]uint64), nRows) // [row][ratio] faults
	for i := range sums {
		sums[i] = make([]float64, 1+len(oversubRatios))
		fsums[i] = make([]uint64, len(oversubRatios))
	}
	rowNames := make([]string, nRows)
	for _, wl := range wls {
		base := r.Run(wl, scheme.Baseline)
		norm := func(res gpu.Result) float64 {
			if base.IPC() == 0 {
				return 0
			}
			return res.IPC() / base.IPC()
		}
		addRow := func(idx int, name string, resident float64, cell func(ri int) gpu.Result) {
			rowNames[idx] = name
			sums[idx][0] += resident
			row := []interface{}{wl, name, resident}
			for ri := range oversubRatios {
				res := cell(ri)
				n := norm(res)
				faults := res.Reg.Get("uvm_faults")
				sums[idx][1+ri] += n
				fsums[idx][ri] += faults
				row = append(row, n, faults)
			}
			t.AddRow(row...)
		}
		for si, sch := range schemes {
			sch := sch
			addRow(si, sch.Name, norm(r.Run(wl, sch)), func(ri int) gpu.Result { return subs[ri].Run(wl, sch) })
			if sch == scheme.SHM {
				for pi, pv := range oversubPrefetchVariants {
					pi := pi
					addRow(len(schemes)+pi, pv.name, norm(r.Run(wl, scheme.SHM)),
						func(ri int) gpu.Result { return psubs[pi][ri].Run(wl, scheme.SHM) })
				}
			}
		}
	}
	for idx, name := range rowNames {
		avg := []interface{}{"average", name, sums[idx][0] / float64(len(wls))}
		for ri := range oversubRatios {
			avg = append(avg, sums[idx][1+ri]/float64(len(wls)), fsums[idx][ri]/uint64(len(wls)))
		}
		t.AddRow(avg...)
	}
	return t
}

// TableVII checks the measured baseline bandwidth utilization against the
// paper's per-benchmark bands.
func (r *Runner) TableVII() *report.Table {
	t := report.NewTable("Table VII: baseline DRAM bandwidth utilization",
		"benchmark", "measured", "paper band")
	bands := map[string]string{
		"atax": "23%", "backprop": "27-50%", "bfs": "15-50%", "b+tree": "12-15%",
		"cfd": "27-75%", "fdtd2d": "90-93%", "kmeans": "67-81%", "mvt": "22%",
		"histo": "55%", "lbm": "95%", "mri-gridding": "30-47%", "sad": "17%",
		"stencil": "11-42%", "srad": "20-22%", "srad_v2": "72-78%", "streamcluster": "78%",
	}
	for _, wl := range r.workloads {
		res := r.Run(wl, scheme.Baseline)
		t.AddRow(wl, report.Percent(res.BusUtilization), bands[wl])
	}
	return t
}

// TableIX reports the detector hardware overhead.
func TableIX() *report.Table {
	h := detectors.PaperHardwareOverhead()
	t := report.NewTable("Table IX: hardware overhead", "component", "value")
	t.AddRow("read-only predictor entries", h.ReadOnlyBitsPerPartition)
	t.AddRow("streaming predictor entries", h.StreamingBitsPerPartition)
	t.AddRow("bits per access tracker", h.TrackerBits)
	t.AddRow("trackers per partition", h.Trackers)
	t.AddRow("partitions", h.Partitions)
	t.AddRow("total bytes", h.TotalBytes())
	t.AddRow("total (paper: 5460 B / 5.33 KB)", fmt.Sprintf("%.2f KB", float64(h.TotalBytes())/1024))
	return t
}

// Summary returns the headline numbers of the reproduction: average
// performance overheads per design (the paper's abstract numbers).
func (r *Runner) Summary() *report.Table {
	t := report.NewTable("Headline averages (memory-intensive workloads)",
		"design", "avg normalized IPC", "avg overhead", "paper overhead")
	paper := map[string]string{
		scheme.Naive.Name:         "53.9%",
		scheme.CommonCtr.Name:     "49.4%",
		scheme.PSSM.Name:          "18.6%",
		scheme.SHM.Name:           "8.09%",
		scheme.SHMUpperBound.Name: "6.76%",
	}
	for _, s := range fig12Schemes() {
		var sum float64
		for _, wl := range r.workloads {
			sum += r.normalizedIPC(wl, s)
		}
		avg := sum / float64(len(r.workloads))
		t.AddRow(s.Name, avg, report.Percent(1-avg), paper[s.Name])
	}
	return t
}
