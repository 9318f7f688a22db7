// Package experiments regenerates every table and figure of the paper's
// evaluation section: workload characterization (Fig. 5), predictor
// accuracy breakdowns (Figs. 10, 11), overall performance (Fig. 12),
// optimization breakdown (Fig. 13), bandwidth overheads (Fig. 14), energy
// (Fig. 15), the L2 victim-cache study (Fig. 16), and the static tables
// (VII hardware utilization check, IX hardware overhead), plus the
// oversubscription sweep and four ablations.
//
// Figures is the one list of them: each entry's id, report file stem,
// cells and table builder. A builder runs its declared cells on the
// runner's worker pool, under its ops plane and telemetry sink, before it
// reads any Result. A Runner caches results keyed by the cell's RunSpec
// (configuration, workload and design), so figures sharing runs (12, 13,
// 14, 15 all reuse the same sweeps) pay for each simulation once.
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
	cache map[RunSpec]gpu.Result
	err   error // first refused run, see Err
}

// SetWorkers bounds the cell worker pool (paperbench -workers).
// 0 restores the default, runtime.NumCPU(). Each worker runs one whole
// simulation at a time; a run itself is single-threaded.
func (r *Runner) SetWorkers(n int) { r.workers = n }

// SetTelemetrySink instruments every subsequent uncached run with a fresh
// collector and passes it to sink together with the result. Cells run on a
// worker pool, so sink must be safe for concurrent use (writing to
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
	return &Runner{cfg: cfg, workloads: workloads, cache: map[RunSpec]gpu.Result{}}
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

// spec is the runner's cell for one workload under one design.
func (r *Runner) spec(wl string, sch scheme.Scheme) RunSpec {
	return RunSpec{Config: r.cfg, Workload: wl, Scheme: sch}
}

// Run simulates one workload under one scheme (cached).
func (r *Runner) Run(wl string, sch scheme.Scheme) gpu.Result {
	return r.runOn(-1, r.spec(wl, sch))
}

// RunWithAccuracy simulates with the Fig. 10/11 accuracy harness enabled
// (cached; see withAccuracy).
func (r *Runner) RunWithAccuracy(wl string, sch scheme.Scheme) gpu.Result {
	return r.Run(wl, withAccuracy(sch))
}

// withAccuracy turns sch's accuracy harness on and labels it <name>@acc,
// so its ops-plane cell and telemetry dump never collide with the plain
// design's.
func withAccuracy(sch scheme.Scheme) scheme.Scheme {
	sch.Options.TrackAccuracy = true
	sch.Name += "@acc"
	return sch
}

// runOn runs spec once and caches its Result, on the pool worker given
// (-1 when not on a pool), which is threaded into the cell span. The spec
// itself is the cache key, so it must carry neither Observe nor
// Telemetry: runOn attaches both. A run Execute refuses (an invalid
// configuration or workload) is recorded for Err and yields an empty
// Result.
func (r *Runner) runOn(worker int, spec RunSpec) gpu.Result {
	r.mu.Lock()
	res, ok := r.cache[spec]
	r.mu.Unlock()
	if ok {
		return res
	}

	name := spec.Workload + "/" + spec.Scheme.Name
	run := spec
	run.Observe = r.ops.BeginRun(name)
	if r.sink != nil {
		run.Telemetry = &r.tcfg
	}
	orun := run.Observe
	if orun != nil && worker >= 0 {
		orun.Span().Annotate("worker", strconv.Itoa(worker))
	}
	var out RunOutput
	var err error
	if orun == nil || !r.ops.CanCancel() {
		out, err = Execute(run)
	} else {
		s := run // the goroutine's copy, heap-allocated only on this path
		out, err = r.abandonable(orun, func() (RunOutput, error) { return Execute(s) })
	}
	res = out.Result
	res.Workload, res.Scheme = spec.Workload, spec.Scheme.Name
	orun.Done(res.Cycles, res.Completed)
	if err != nil {
		r.fail(fmt.Errorf("experiments: %s: %w", name, err))
	} else if r.sink != nil && !res.Cancelled {
		r.sink(res, out.Collector)
	}

	r.mu.Lock()
	r.cache[spec] = res
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
	go func() { out, err := run(); ch <- ran{out, err} }() // joined via ch, or abandoned on watchdog cancel
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

// Prefetch runs the given (workload × scheme) cross product on the worker
// pool, filling the cache. The figure builders prefetch their own cells;
// this is for callers that read cells through Run.
func (r *Runner) Prefetch(schemes []scheme.Scheme, accuracy bool) {
	specs := r.cells(schemes...)
	if accuracy {
		for i := range specs {
			specs[i].Scheme = withAccuracy(specs[i].Scheme)
		}
	}
	r.prefetch(specs)
}

// cells is the (workload × scheme) cross product, workload-major.
func (r *Runner) cells(schemes ...scheme.Scheme) []RunSpec {
	specs := make([]RunSpec, 0, len(r.workloads)*len(schemes))
	for _, wl := range r.workloads {
		for _, sch := range schemes {
			specs = append(specs, r.spec(wl, sch))
		}
	}
	return specs
}

// prefetch runs specs on the shared fixed worker pool (internal/pool),
// filling the cache. Worker count comes from SetWorkers, defaulting to
// runtime.NumCPU().
func (r *Runner) prefetch(specs []RunSpec) {
	if len(specs) == 0 {
		return
	}
	workers := r.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, len(specs))
	tasks := make([]func(worker int), len(specs))
	for i := range specs {
		tasks[i] = func(worker int) { r.runOn(worker, specs[i]) }
	}
	p := pool.New(workers)
	defer p.Close()
	p.RunTagged(tasks)
}

// Figure is one table of the evaluation.
type Figure struct {
	// ID selects the figure (paperbench -fig, shmgpu.Figure).
	ID string
	// Stem names its report file under results/.
	Stem string
	// Extra leaves it out of paperbench -fig all (the ablations).
	Extra bool
	// Cells lists the distinct cells Table runs on a runner.
	Cells func(*Runner) []RunSpec
	// Table runs Cells on the runner's worker pool and renders the figure.
	Table func(*Runner) *report.Table
}

// Figures is the evaluation, in the order paperbench renders it.
var Figures = []Figure{
	{"5", "fig05_characterization", false, (*Runner).fig5Cells, (*Runner).Fig5},
	{"10", "fig10_readonly_prediction", false, (*Runner).accuracyCells, (*Runner).Fig10},
	{"11", "fig11_streaming_prediction", false, (*Runner).accuracyCells, (*Runner).Fig11},
	{"12", "fig12_normalized_ipc", false, fig12.cells, (*Runner).Fig12},
	{"13", "fig13_optimization_breakdown", false, fig13.cells, (*Runner).Fig13},
	{"14", "fig14_bandwidth_overhead", false, fig14.cells, (*Runner).Fig14},
	{"15", "fig15_energy", false, fig15.cells, (*Runner).Fig15},
	{"16", "fig16_victim_cache", false, (*Runner).fig16Cells, (*Runner).Fig16},
	{"oversub", "oversubscription_sweep", false, (*Runner).oversubCells, (*Runner).FigOversub},
	{"vii", "table07_bandwidth_utilization", false, (*Runner).tableVIICells, (*Runner).TableVII},
	{"ix", "table09_hardware_overhead", false, func(*Runner) []RunSpec { return nil }, func(*Runner) *report.Table { return TableIX() }},
	{"summary", "summary_headline", false, fig12.cells, (*Runner).Summary},
	{"ablation-trackers", "ablation_trackers", true, trackersAblation.cells, (*Runner).AblationTrackers},
	{"ablation-lead", "ablation_monitor_lead", true, leadAblation.cells, (*Runner).AblationMonitorLead},
	{"ablation-timeout", "ablation_timeout", true, timeoutAblation.cells, (*Runner).AblationTimeout},
	{"ablation-mdc", "ablation_mdc_size", true, mdcAblation.cells, (*Runner).AblationMDCSize},
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

func (r *Runner) fig5Cells() []RunSpec { return r.cells(scheme.SHMUpperBound) }

// Fig5 reproduces the access-characterization figure: the fraction of
// off-chip accesses (L2 misses and write-backs) that target streaming data
// and read-only data, per workload. Measured on the oracle-truth design so
// every access is classified against ground truth.
func (r *Runner) Fig5() *report.Table {
	r.prefetch(r.fig5Cells())
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

// accuracyCells are the Figs. 10/11 cells: SHM with the accuracy harness.
func (r *Runner) accuracyCells() []RunSpec { return r.cells(withAccuracy(scheme.SHM)) }

// Fig10 reproduces the read-only prediction breakdown.
func (r *Runner) Fig10() *report.Table {
	r.prefetch(r.accuracyCells())
	t := report.NewTable("Figure 10: read-only prediction breakdown",
		"benchmark", "correct", "MP_Init", "MP_Aliasing", "accuracy")
	var accs []float64
	for _, wl := range r.workloads {
		res := r.RunWithAccuracy(wl, scheme.SHM)
		ps := res.ROAccuracy
		t.AddRow(wl,
			report.Percent(ps.Fraction(stats.OutcomeCorrect)),
			report.Percent(ps.Fraction(stats.OutcomeMPInit)),
			report.Percent(ps.Fraction(stats.OutcomeMPAliasing)),
			accuracyCell(ps, &accs))
	}
	t.AddRow("average", "", "", "", report.Percent(report.Mean(accs)))
	return t
}

// accuracyCell renders a Figs. 10/11 accuracy cell and appends the
// accuracy to accs for the average row. A predictor with no predictions
// has no accuracy: its cell reads "-" and the average leaves it out.
func accuracyCell(ps stats.PredictorStats, accs *[]float64) string {
	acc, ok := ps.Accuracy()
	if ok {
		*accs = append(*accs, acc)
	}
	return report.PercentOrDash(acc, ok)
}

// Fig11 reproduces the streaming prediction breakdown.
func (r *Runner) Fig11() *report.Table {
	r.prefetch(r.accuracyCells())
	t := report.NewTable("Figure 11: streaming prediction breakdown",
		"benchmark", "correct", "MP_Init", "MP_Runtime_RO", "MP_Runtime_NonRO", "MP_Aliasing", "accuracy")
	var accs []float64
	for _, wl := range r.workloads {
		res := r.RunWithAccuracy(wl, scheme.SHM)
		ps := res.StreamAccuracy
		t.AddRow(wl,
			report.Percent(ps.Fraction(stats.OutcomeCorrect)),
			report.Percent(ps.Fraction(stats.OutcomeMPInit)),
			report.Percent(ps.Fraction(stats.OutcomeMPRuntimeRO)),
			report.Percent(ps.Fraction(stats.OutcomeMPRuntimeNonRO)),
			report.Percent(ps.Fraction(stats.OutcomeMPAliasing)),
			accuracyCell(ps, &accs))
	}
	t.AddRow("average", "", "", "", "", "", report.Percent(report.Mean(accs)))
	return t
}

// designFigure is a figure with one column per design: a row per workload
// and an average row.
type designFigure struct {
	title   string
	designs []scheme.Scheme
	// value is the cell of one workload under one design; baseline is
	// set when it reads the workload's Baseline run too.
	value    func(r *Runner, wl string, sch scheme.Scheme) float64
	baseline bool
	percent  bool // render values as percentages
}

func (f designFigure) cells(r *Runner) []RunSpec {
	if f.baseline {
		return r.cells(append([]scheme.Scheme{scheme.Baseline}, f.designs...)...)
	}
	return r.cells(f.designs...)
}

func (f designFigure) table(r *Runner) *report.Table {
	r.prefetch(f.cells(r))
	show := func(v float64) interface{} {
		if f.percent {
			return report.Percent(v)
		}
		return v
	}
	cols := []string{"benchmark"}
	for _, s := range f.designs {
		cols = append(cols, s.Name)
	}
	t := report.NewTable(f.title, cols...)
	sums := make([]float64, len(f.designs))
	for _, wl := range r.workloads {
		row := []interface{}{wl}
		for i, s := range f.designs {
			v := f.value(r, wl, s)
			sums[i] += v
			row = append(row, show(v))
		}
		t.AddRow(row...)
	}
	avg := []interface{}{"average"}
	for i := range f.designs {
		avg = append(avg, show(sums[i]/float64(len(r.workloads))))
	}
	t.AddRow(avg...)
	return t
}

var (
	fig12 = designFigure{
		title:   "Figure 12: normalized IPC of secure GPU memory designs",
		designs: []scheme.Scheme{scheme.Naive, scheme.CommonCtr, scheme.PSSM, scheme.SHM, scheme.SHMUpperBound},
		value:   (*Runner).normalizedIPC, baseline: true,
	}
	fig13 = designFigure{
		title:   "Figure 13: performance impact of individual optimizations",
		designs: []scheme.Scheme{scheme.PSSM, scheme.PSSMCtr, scheme.SHMReadOnly, scheme.SHM, scheme.SHMCctr},
		value:   (*Runner).normalizedIPC, baseline: true,
	}
	fig14 = designFigure{
		title:   "Figure 14: security-metadata bandwidth overhead (vs regular data)",
		designs: []scheme.Scheme{scheme.Naive, scheme.PSSM, scheme.SHMReadOnly, scheme.SHM},
		value: func(r *Runner, wl string, sch scheme.Scheme) float64 {
			return r.Run(wl, sch).BandwidthOverhead()
		},
		percent: true,
	}
	fig15 = designFigure{
		title:   "Figure 15: normalized energy per instruction",
		designs: []scheme.Scheme{scheme.Naive, scheme.CommonCtr, scheme.PSSM, scheme.SHM},
		value: func(r *Runner, wl string, sch scheme.Scheme) float64 {
			return energy.Default().Normalized(activityOf(r.Run(wl, sch)), activityOf(r.Run(wl, scheme.Baseline)))
		},
		baseline: true,
	}
)

// Fig12 reproduces the normalized-IPC comparison.
func (r *Runner) Fig12() *report.Table { return fig12.table(r) }

// Fig13 reproduces the optimization breakdown.
func (r *Runner) Fig13() *report.Table { return fig13.table(r) }

// Fig14 reproduces the bandwidth-overhead comparison.
func (r *Runner) Fig14() *report.Table { return fig14.table(r) }

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
func (r *Runner) Fig15() *report.Table { return fig15.table(r) }

func (r *Runner) fig16Cells() []RunSpec {
	return r.cells(scheme.Baseline, scheme.SHM, scheme.SHMvL2)
}

// Fig16 reproduces the L2-victim-cache study.
func (r *Runner) Fig16() *report.Table {
	r.prefetch(r.fig16Cells())
	t := report.NewTable("Figure 16: normalized IPC with L2 as metadata victim cache",
		"benchmark", "SHM", "SHM_vL2", "gain", "victim hits")
	var sums [2]float64
	for _, wl := range r.workloads {
		shm := r.normalizedIPC(wl, scheme.SHM)
		vl2 := r.normalizedIPC(wl, scheme.SHMvL2)
		sums[0] += shm
		sums[1] += vl2
		res := r.Run(wl, scheme.SHMvL2)
		t.AddRow(wl, shm, vl2, report.Percent(vl2-shm), res.Reg.Get("victim_hit"))
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

// oversubRow is one row of the oversubscription sweep: a design and the
// migration-ahead policy its ratio cells run under.
type oversubRow struct {
	name   string // row label in the table
	sch    scheme.Scheme
	policy string // gpu.Config.UVMPrefetch of the ratio cells
}

// oversubPrefetchVariants are the migration-ahead policies the sweep runs
// on top of the SHM design, each as its own table row. Demand-only SHM
// stays in the scheme rows; these isolate what the prefetcher buys at the
// same ratio.
var oversubPrefetchVariants = []oversubRow{
	{"SHM+stride", scheme.SHM, "stride"},
	{"SHM+stream", scheme.SHM, "stream"},
}

// oversubRows are the sweep's rows: first its schemes (the baseline and
// every Fig. 12 design) under the runner's policy, then the
// migration-ahead variants of SHM.
func (r *Runner) oversubRows() (rows []oversubRow, schemes int) {
	for _, sch := range append([]scheme.Scheme{scheme.Baseline}, fig12.designs...) {
		rows = append(rows, oversubRow{sch.Name, sch, r.cfg.UVMPrefetch})
	}
	schemes = len(rows)
	return append(rows, oversubPrefetchVariants...), schemes
}

// ratioCell is the runner's config with the tier on at ratio, labelled
// with its row and ratio (SHM@r=0.50, SHM+stream@r=0.50), so its ops-plane
// cell and telemetry dump never collide with a tier-off one.
func (r *Runner) ratioCell(wl string, row oversubRow, ratio float64) RunSpec {
	spec := r.spec(wl, row.sch)
	spec.Config.HostTier = true
	spec.Config.OversubRatio = ratio
	spec.Config.UVMPrefetch = row.policy
	spec.Scheme.Name = fmt.Sprintf("%s@r=%.2f", row.name, ratio)
	return spec
}

// oversubCells are the sweep's cells: per workload, the scheme rows'
// tier-off cells (the runner's own, shared with the other figures) and
// every row's ratio cells.
func (r *Runner) oversubCells() []RunSpec {
	rows, schemes := r.oversubRows()
	var specs []RunSpec
	for _, wl := range oversubWorkloads(r.workloads) {
		for _, row := range rows[:schemes] {
			specs = append(specs, r.spec(wl, row.sch))
		}
		for _, row := range rows {
			for _, ratio := range oversubRatios {
				specs = append(specs, r.ratioCell(wl, row, ratio))
			}
		}
	}
	return specs
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
func (r *Runner) FigOversub() *report.Table {
	r.prefetch(r.oversubCells())
	rows, schemes := r.oversubRows()
	wls := oversubWorkloads(r.workloads)

	cols := []string{"benchmark", "scheme", "resident"}
	for _, ratio := range oversubRatios {
		cols = append(cols, fmt.Sprintf("r=%.2f", ratio), fmt.Sprintf("f=%.2f", ratio))
	}
	t := report.NewTable("Oversubscription sweep: normalized IPC and demand faults with the host-backed tier", cols...)

	sums := make([][]float64, len(rows))   // [row][1+ratio] normalized IPC
	fsums := make([]([]uint64), len(rows)) // [row][ratio] faults
	for i := range sums {
		sums[i] = make([]float64, 1+len(oversubRatios))
		fsums[i] = make([]uint64, len(oversubRatios))
	}
	for _, wl := range wls {
		base := r.Run(wl, scheme.Baseline)
		norm := func(res gpu.Result) float64 {
			if base.IPC() == 0 {
				return 0
			}
			return res.IPC() / base.IPC()
		}
		addRow := func(idx int) {
			row := rows[idx]
			resident := norm(r.Run(wl, row.sch))
			sums[idx][0] += resident
			cells := []interface{}{wl, row.name, resident}
			for ri, ratio := range oversubRatios {
				res := r.runOn(-1, r.ratioCell(wl, row, ratio))
				n := norm(res)
				faults := res.Reg.Get("uvm_faults")
				sums[idx][1+ri] += n
				fsums[idx][ri] += faults
				cells = append(cells, n, faults)
			}
			t.AddRow(cells...)
		}
		// Each workload lists the variants right under SHM.
		for si, row := range rows[:schemes] {
			addRow(si)
			if row.sch == scheme.SHM {
				for vi := schemes; vi < len(rows); vi++ {
					addRow(vi)
				}
			}
		}
	}
	for idx, row := range rows {
		avg := []interface{}{"average", row.name, sums[idx][0] / float64(len(wls))}
		for ri := range oversubRatios {
			avg = append(avg, sums[idx][1+ri]/float64(len(wls)), fsums[idx][ri]/uint64(len(wls)))
		}
		t.AddRow(avg...)
	}
	return t
}

func (r *Runner) tableVIICells() []RunSpec { return r.cells(scheme.Baseline) }

// TableVII checks the measured baseline bandwidth utilization against the
// paper's per-benchmark bands.
func (r *Runner) TableVII() *report.Table {
	r.prefetch(r.tableVIICells())
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
// performance overheads per design (the paper's abstract numbers), over
// the Fig. 12 cells.
func (r *Runner) Summary() *report.Table {
	r.prefetch(fig12.cells(r))
	t := report.NewTable("Headline averages (memory-intensive workloads)",
		"design", "avg normalized IPC", "avg overhead", "paper overhead")
	paper := map[string]string{
		scheme.Naive.Name:         "53.9%",
		scheme.CommonCtr.Name:     "49.4%",
		scheme.PSSM.Name:          "18.6%",
		scheme.SHM.Name:           "8.09%",
		scheme.SHMUpperBound.Name: "6.76%",
	}
	for _, s := range fig12.designs {
		var sum float64
		for _, wl := range r.workloads {
			sum += r.normalizedIPC(wl, s)
		}
		avg := sum / float64(len(r.workloads))
		t.AddRow(s.Name, avg, report.Percent(1-avg), paper[s.Name])
	}
	return t
}
