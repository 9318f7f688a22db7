package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shmgpu/internal/experiments"
	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/report"
	"shmgpu/internal/scheme"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// cycleBudget is the per-kernel MaxCycles every cell runs under: about 3x
// the longest cell, so every cell runs to completion. QuickConfig's own
// 120 000-cycle cap stops 37 of the 90 quick sweep cells early.
const cycleBudget = 10_000_000

// sweepWorkers is the fig12-sweep pool width. It is fixed rather than taken
// from the machine so the workload is the same everywhere.
const sweepWorkers = 2

// sweepSampleInterval is paperbench's default timeline sampling period, used
// by the sweep's telemetry collectors.
const sweepSampleInterval = 5000

// setupRepeats is how many times setup_s builds each cell.
const setupRepeats = 15

// cell is one simulation: a workload model under one secure-memory design,
// optionally behind the host-backed memory tier.
type cell struct {
	wl  string
	sch scheme.Scheme
	// ratio is the host tier's resident share of the footprint; 0 leaves
	// the tier off.
	ratio    float64
	prefetch string
}

func (c cell) String() string {
	if c.ratio == 0 {
		return c.wl + "/" + c.sch.Name
	}
	return fmt.Sprintf("%s/%s/r=%g/%s", c.wl, c.sch.Name, c.ratio, c.prefetch)
}

func (c cell) config() gpu.Config {
	cfg := experiments.QuickConfig()
	cfg.MaxCycles = cycleBudget
	if c.ratio > 0 {
		cfg.HostTier = true
		cfg.OversubRatio = c.ratio
		cfg.UVMPrefetch = c.prefetch
	}
	return cfg
}

// benchWorkload is one benchmark workload: a fixed list of cells run as one
// pass. A sweep workload runs its pass through experiments.Runner the way
// `paperbench -fig 12 -metrics-out DIR` does; the others build and run
// their cells one after another on one goroutine.
type benchWorkload struct {
	name  string
	why   string
	cells []cell
	sweep bool
}

// fig12Schemes are the six designs `paperbench -fig 12` prefetches.
var fig12Schemes = []scheme.Scheme{
	scheme.Baseline, scheme.Naive, scheme.CommonCtr, scheme.PSSM, scheme.SHM, scheme.SHMUpperBound,
}

func cross(wls []string, schemes ...scheme.Scheme) []cell {
	var cells []cell
	for _, wl := range wls {
		for _, sch := range schemes {
			cells = append(cells, cell{wl: wl, sch: sch})
		}
	}
	return cells
}

// workloads is the benchmark's workload table. bench/README.md gives the
// measurements behind each choice.
var workloads = []benchWorkload{
	{
		name:  "lowbw",
		why:   "compute-bound cells (IPC ~9.8 of 10, DRAM ~17% busy) where SM issue and warp generation run every tick; Baseline cells bypass the MEE and are the control for SHM",
		cells: cross([]string{"atax", "mvt", "sad", "b+tree"}, scheme.Baseline, scheme.SHM),
	},
	{
		name:  "highbw",
		why:   "DRAM 84% busy with streaming writes, random reads and random writes: DRAM, MEE and L2 take ~80% of CPU; Naive is the metadata-heaviest design",
		cells: cross([]string{"lbm", "streamcluster", "mri-gridding"}, scheme.Naive, scheme.SHM),
	},
	{
		name: "oversub",
		why:  "the only workload with the host tier on: 8 M mostly fault-wait ticks; stream prefetch wins at r=0.75 and loses at r=0.25; lbm adds dirty writebacks",
		cells: []cell{
			{wl: "atax", sch: scheme.SHM, ratio: 0.75, prefetch: "none"},
			{wl: "atax", sch: scheme.SHM, ratio: 0.75, prefetch: "stream"},
			{wl: "atax", sch: scheme.SHM, ratio: 0.25, prefetch: "none"},
			{wl: "atax", sch: scheme.SHM, ratio: 0.25, prefetch: "stream"},
			{wl: "lbm", sch: scheme.SHM, ratio: 0.5, prefetch: "stride"},
		},
	},
	{
		name:  "fig12-sweep",
		why:   "paperbench -fig 12 with per-cell Prometheus dumps on 2 workers: the path users run, and the only one through the Runner, its worker pool and telemetry",
		cells: cross([]string{"atax", "sad", "streamcluster"}, fig12Schemes...),
		sweep: true,
	},
}

// seedFor is the workload seed a cell of w runs with: the Runner takes no
// seed, so the sweep always runs the built-in seeds (seed 0).
func (w *benchWorkload) seedFor(seed int64) int64 {
	if w.sweep {
		return 0
	}
	return seed
}

// sweepWorkloads lists the distinct workload models of w's cells in order.
func (w *benchWorkload) sweepWorkloads() []string {
	var wls []string
	seen := map[string]bool{}
	for _, c := range w.cells {
		if !seen[c.wl] {
			seen[c.wl] = true
			wls = append(wls, c.wl)
		}
	}
	return wls
}

// tickCounter counts the ticks the simulator executes. The simulator calls
// SyncTick once per executed tick; every other method, including SetGrid
// and Footprint, is Bench's own.
type tickCounter struct {
	*workload.Bench
	ticks uint64
}

func (t *tickCounter) SyncTick() {
	t.ticks++
	t.Bench.SyncTick()
}

// tracedPass is the instrumentation of one traced pass: the span tracer and
// cell runs of an observability plane, and the executed-tick total.
type tracedPass struct {
	plane *obs.Plane
	ticks atomic.Uint64
}

// runCell builds and runs one cell. Traced (tr non-nil), the run also gets
// a cell span around the construction and run calls, the simulator's phase
// events, and a tick counter.
func runCell(c cell, seed int64, tr *tracedPass) gpu.Result {
	var run *obs.Run
	if tr != nil {
		run = tr.plane.BeginRun(c.String())
	}
	b, err := workload.ByNameSeeded(c.wl, seed)
	if err != nil {
		panic(err) // the workload table names registered models only
	}
	sys := gpu.NewSystem(c.config(), c.sch.Options)
	if tr == nil {
		res := sys.Run(b)
		res.Scheme = c.sch.Name
		return res
	}
	if run != nil {
		sys.SetObserver(run, 0)
	}
	tc := &tickCounter{Bench: b}
	res := sys.Run(tc)
	res.Scheme = c.sch.Name
	run.Done(res.Cycles, res.Completed)
	tr.ticks.Add(tc.ticks)
	return res
}

// pass is one timed pass over a workload's cells.
type pass struct {
	wall    time.Duration
	alloc   uint64 // heap bytes allocated
	mallocs uint64 // heap objects allocated
	results []gpu.Result
	// problems are failed sweep checks keyed by cell.
	problems map[string][]string
	// export is the time the sweep's sink spent writing Prometheus dumps.
	export time.Duration
}

// runPass runs one pass of w and measures its wall time and allocation.
func runPass(w *benchWorkload, seed int64, tr *tracedPass) (pass, error) {
	if w.sweep {
		return runSweepPass(w, tr)
	}
	var p pass
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, c := range w.cells {
		p.results = append(p.results, runCell(c, seed, tr))
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	return p, nil
}

// runSweepPass runs `paperbench -fig 12 -metrics-out DIR` on w's cells: a
// fresh Runner (so its result cache starts cold) prefetches every cell on
// sweepWorkers workers, each finished cell writes a Prometheus dump, and
// Fig12 renders the normalized-IPC table. The table's values and the dumps
// are then checked.
func runSweepPass(w *benchWorkload, tr *tracedPass) (pass, error) {
	dir, err := os.MkdirTemp("", "bench-prom-")
	if err != nil {
		return pass{}, fmt.Errorf("creating the dump directory: %w", err)
	}
	defer os.RemoveAll(dir)

	cfg := w.cells[0].config()
	p := pass{problems: map[string][]string{}}
	var mu sync.Mutex
	var exportNS atomic.Int64
	sink := func(res gpu.Result, col *telemetry.Collector) {
		start := time.Now()
		err := writeDump(filepath.Join(dir, dumpName(res.Workload, res.Scheme)), cfg, res, col)
		exportNS.Add(int64(time.Since(start)))
		if err != nil {
			mu.Lock()
			key := res.Workload + "/" + res.Scheme
			p.problems[key] = append(p.problems[key], err.Error())
			mu.Unlock()
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r := experiments.NewRunner(cfg, w.sweepWorkloads())
	r.SetWorkers(sweepWorkers)
	r.SetTelemetrySink(telemetry.Config{SampleInterval: sweepSampleInterval}, sink)
	if tr != nil {
		r.SetOps(tr.plane)
	}
	r.Prefetch(fig12Schemes, false)
	table := r.Fig12()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.export = time.Duration(exportNS.Load())

	for _, c := range w.cells {
		p.results = append(p.results, r.Run(c.wl, c.sch))
		if fi, err := os.Stat(filepath.Join(dir, dumpName(c.wl, c.sch.Name))); err != nil || fi.Size() == 0 {
			p.problems[c.String()] = append(p.problems[c.String()], "Prometheus dump missing or empty")
		}
	}
	checkFig12(table, p.problems)
	return p, nil
}

func dumpName(wl, sch string) string { return wl + "_" + sch + ".prom" }

// writeDump writes one cell's Prometheus dump, as paperbench -metrics-out
// does.
func writeDump(path string, cfg gpu.Config, res gpu.Result, col *telemetry.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	m := telemetry.Manifest{
		Tool:           "bench",
		SchemaVersion:  telemetry.SchemaVersion,
		Workload:       res.Workload,
		Scheme:         res.Scheme,
		Quick:          true,
		SMs:            cfg.SMs,
		Partitions:     cfg.Partitions,
		MaxCycles:      cfg.MaxCycles,
		SampleInterval: sweepSampleInterval,
	}
	if err := telemetry.WritePrometheus(f, col, experiments.TelemetrySummary(res), m); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// checkFig12 records a problem for every normalized IPC in the Fig. 12
// table outside (0, 1.05]: a secure design cannot outrun the insecure
// baseline by more than noise in the model.
func checkFig12(t *report.Table, problems map[string][]string) {
	for _, row := range t.Rows {
		if len(row) == 0 || row[0] == "average" {
			continue
		}
		for i, cellText := range row[1:] {
			key := row[0] + "/" + t.Columns[i+1]
			v, err := strconv.ParseFloat(cellText, 64)
			if err != nil || !(v > 0 && v <= 1.05) {
				problems[key] = append(problems[key], fmt.Sprintf("normalized IPC %q outside (0, 1.05]", cellText))
			}
		}
	}
}

// checker accumulates a workload's output checks across passes.
type checker struct {
	digests   map[string]uint64 // cell → digest of its first result
	attempted int
	failures  []string // one line per failed cell run
}

func newChecker() *checker { return &checker{digests: map[string]uint64{}} }

// check checks one pass's results, in cell order. A cell run fails when it
// did not complete (or was cancelled), when its instruction count differs
// from another cell of the same model in the pass, when its digest differs
// from the same cell's first result, or when problems names it.
func (c *checker) check(cells []cell, results []gpu.Result, problems map[string][]string) {
	instr := map[string]uint64{}
	for i, res := range results {
		name := cells[i].String()
		c.attempted++
		bad := append([]string(nil), problems[name]...)
		if !res.Completed || res.Cancelled {
			bad = append(bad, fmt.Sprintf("not completed within %d cycles per kernel", cycleBudget))
		}
		if want, ok := instr[cells[i].wl]; !ok {
			instr[cells[i].wl] = res.Instructions
		} else if res.Instructions != want {
			bad = append(bad, fmt.Sprintf("%d instructions, other %s cells %d", res.Instructions, cells[i].wl, want))
		}
		d := digest(res)
		if first, ok := c.digests[name]; !ok {
			c.digests[name] = d
		} else if d != first {
			bad = append(bad, "result differs from the cell's first run")
		}
		if len(bad) > 0 {
			c.failures = append(c.failures, name+": "+strings.Join(bad, "; "))
		}
	}
}

// digest hashes everything a run reports: the summary line, the event
// registry and the traffic by class.
func digest(res gpu.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, res.String(), res.Reg.Snapshot(), res.Traffic)
	return h.Sum64()
}

// simIPC is the geometric mean of the cells' simulated IPC.
func simIPC(results []gpu.Result) float64 {
	ipcs := make([]float64, len(results))
	for i, r := range results {
		ipcs[i] = r.IPC()
	}
	return report.GeoMean(ipcs)
}

// metaBWOverhead is the metadata bytes over the data bytes of all cells
// together (paper Fig. 14).
func metaBWOverhead(results []gpu.Result) float64 {
	var t stats.Traffic
	for i := range results {
		t.Merge(&results[i].Traffic)
	}
	return t.OverheadRatio()
}

// measureSetup times the construction of every cell of w (ByNameSeeded then
// gpu.NewSystem) setupRepeats times. It returns the sum over cells of each
// cell's median construction time, and the per-repeat sums as samples.
func measureSetup(w *benchWorkload, seed int64) (float64, []float64) {
	times := make([][]float64, len(w.cells))
	sums := make([]float64, setupRepeats)
	for r := range sums {
		for i, c := range w.cells {
			start := time.Now()
			if _, err := workload.ByNameSeeded(c.wl, seed); err != nil {
				panic(err) // the workload table names registered models only
			}
			gpu.NewSystem(c.config(), c.sch.Options)
			d := time.Since(start).Seconds()
			times[i] = append(times[i], d)
			sums[r] += d
		}
	}
	var total float64
	for _, ts := range times {
		total += median(ts)
	}
	return total, sums
}
