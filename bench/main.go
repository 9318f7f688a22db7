// Command bench is the shmgpu benchmark. It drives the simulator through
// its Go API on four fixed workloads, checks every result, and prints each
// workload's end-to-end metrics, or with -trace 1 its per-layer metrics,
// and then one JSON result line. Run it from the root of a checkout:
//
//	sh bench/run.sh --workload lowbw --seed 1 --seconds 22 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"shmgpu/internal/gpu"
)

// defaultSeconds is the measurement window per workload, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 22

// options are the settings of one benchmark run.
type options struct {
	seed    int64
	seconds float64
	passes  int
	trace   bool
}

// more reports whether to start another round of passes. With -passes set
// it runs exactly that many rounds. Otherwise it keeps starting rounds while
// the -seconds window has at least half a round left, so the measured time
// ends as close to the window as whole rounds allow.
func (o options) more(done int, elapsed time.Duration, rounds []float64) bool {
	if o.passes > 0 {
		return done < o.passes
	}
	return done == 0 || elapsed.Seconds()+median(rounds)/2 < o.seconds
}

// manifest identifies a run: the build, the machine and the settings.
type manifest struct {
	GitRev       string  `json:"git_rev"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Passes       int     `json:"passes_override,omitempty"`
	Trace        bool    `json:"trace"`
	CycleBudget  uint64  `json:"cycle_budget"`
	SweepWorkers int     `json:"sweep_workers"`
}

// workloadResult is what a run measured on one workload.
type workloadResult struct {
	Name      string   `json:"name"`
	Passes    int      `json:"passes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// runReport is the record -json appends, one line per run.
type runReport struct {
	Manifest  manifest         `json:"manifest"`
	Workloads []workloadResult `json:"workloads"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: exit 0 on success, 1 when a check fails or a file
// cannot be read or written, 2 on bad flags, and 3 when -compare finds a
// regression.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names string
	all := strings.Join(workloadNames(), ",")
	fs.StringVar(&names, "workload", all, "comma-separated workloads to run")
	fs.StringVar(&names, "workloads", all, "same as -workload")
	var o options
	fs.Int64Var(&o.seed, "seed", 0, "workload seed for workload.ByNameSeeded (0 keeps the built-in seeds; fig12-sweep always does)")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measurement window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics on traced passes instead of the end-to-end metrics")
	fs.IntVar(&o.passes, "passes", 0, "run exactly this many rounds instead of filling -seconds (smoke runs only)")
	jsonOut := fs.String("json", "", "append the run's full report to this file as one JSON line")
	compare := fs.Bool("compare", false, "compare two -json files, parent then change, instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two -json files: parent then change")
			return 2
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if regressed > 0 {
			return 3
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(o.seconds > 0) || o.passes < 0 {
		fmt.Fprintln(stderr, "bench: want no arguments, -trace 0 or 1, -seconds > 0 and -passes >= 0")
		return 2
	}
	o.trace = *trace == 1
	sel, err := selectWorkloads(names)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	rep := runReport{Manifest: newManifest(o)}
	m := rep.Manifest
	fmt.Fprintf(stdout, "shmgpu bench: rev %s, %s, %d CPUs, GOMAXPROCS %d, seed %d, %gs per workload, %d cycles per kernel\n",
		m.GitRev, m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.Seed, m.Seconds, m.CycleBudget)
	for _, w := range sel {
		res, err := measure(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printWorkload(stdout, res, o.trace)
		rep.Workloads = append(rep.Workloads, res)
	}
	if *jsonOut != "" {
		if err := appendReport(*jsonOut, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line := newResultLine(rep, o.trace)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func selectWorkloads(list string) ([]*benchWorkload, error) {
	var sel []*benchWorkload
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(workloads, func(w benchWorkload) bool { return w.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
		}
		sel = append(sel, &workloads[i])
	}
	return sel, nil
}

func newManifest(o options) manifest {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return manifest{
		GitRev:       rev,
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Seed:         o.seed,
		Seconds:      o.seconds,
		Passes:       o.passes,
		Trace:        o.trace,
		CycleBudget:  cycleBudget,
		SweepWorkers: sweepWorkers,
	}
}

// measure runs one workload: one untimed warm-up cell and a forced GC, the
// set-up measurement (untraced runs only), then rounds until the window is
// used. An untraced round is one timed pass; a traced round adds a traced
// pass after it, so the two measure the same conditions.
func measure(w *benchWorkload, o options) (workloadResult, error) {
	seed := w.seedFor(o.seed)
	chk := newChecker()
	chk.check(w.cells[:1], []gpu.Result{runCell(w.cells[0], seed, nil)}, nil)
	runtime.GC()
	var setup float64
	var setupSamples []float64
	if !o.trace {
		setup, setupSamples = measureSetup(w, seed)
		runtime.GC()
	}

	samples := map[string][]float64{}
	var rounds, tracedWalls []float64
	start := time.Now()
	for done := 0; o.more(done, time.Since(start), rounds); done++ {
		roundStart := time.Now()
		p, err := runPass(w, seed, nil)
		if err != nil {
			return workloadResult{}, err
		}
		chk.check(w.cells, p.results, p.problems)
		samples["wall_s"] = append(samples["wall_s"], p.wall.Seconds())
		samples["alloc_mb"] = append(samples["alloc_mb"], float64(p.alloc)/1e6)
		samples["sim_ipc"] = append(samples["sim_ipc"], simIPC(p.results))
		samples["meta_bw_overhead"] = append(samples["meta_bw_overhead"], metaBWOverhead(p.results))
		if o.trace {
			tp, vals, err := runTraced(w, seed, chk)
			if err != nil {
				return workloadResult{}, err
			}
			chk.check(w.cells, tp.results, tp.problems)
			tracedWalls = append(tracedWalls, tp.wall.Seconds())
			for k, v := range vals {
				samples[k] = append(samples[k], v)
			}
		}
		rounds = append(rounds, time.Since(roundStart).Seconds())
	}

	res := workloadResult{
		Name:      w.name,
		Passes:    len(rounds),
		Attempted: chk.attempted,
		Failed:    len(chk.failures),
		Failures:  chk.failures,
	}
	if o.trace {
		samples["trace.overhead_frac"] = []float64{median(tracedWalls)/median(samples["wall_s"]) - 1}
		for _, def := range slices.Concat(perLayer, sparseTimes) {
			res.Metrics = append(res.Metrics, newMetric(def, samples[def.Name]))
		}
		return res, nil
	}
	samples["setup_s"] = setupSamples
	for _, def := range endToEnd {
		m := newMetric(def, samples[def.Name])
		if def.Name == "setup_s" {
			m.Value = setup
		}
		res.Metrics = append(res.Metrics, m)
	}
	return res, nil
}

// printWorkload prints one workload's results: failures, then, when
// traced, the layer table, then every other metric with its sample count
// and quartiles.
func printWorkload(w io.Writer, r workloadResult, trace bool) {
	fmt.Fprintf(w, "\n== %s: %d rounds, %d cell runs, %d failed\n", r.Name, r.Passes, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	if trace {
		self := map[string]float64{}
		for _, m := range r.Metrics {
			if l, ok := strings.CutSuffix(m.Name, ".self_s"); ok {
				self[l] = m.Value
			}
		}
		var total float64
		for _, l := range layerNames() {
			total += self[l]
		}
		fmt.Fprintf(w, "%-12s %10s %7s\n", "layer", "self_s", "share")
		for _, l := range layerNames() {
			fmt.Fprintf(w, "%-12s %10.4f %6.1f%%\n", l, self[l], 100*ratio(self[l], total))
		}
		fmt.Fprintf(w, "%-12s %10.4f %6.1f%%\n\n", "total", total, 100*ratio(total, total))
	}
	fmt.Fprintf(w, "%-26s %-11s %3s %13s %13s %13s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, m := range r.Metrics {
		if trace && strings.HasSuffix(m.Name, ".self_s") {
			continue
		}
		fmt.Fprintf(w, "%-26s %-11s %3d %13.6g %13.6g %13.6g\n", m.Name, m.Unit, m.N, m.Median, m.Q1, m.Q3)
	}
}

// newResultLine builds the result line: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one, named
// "<workload>/<metric>" when the run covered several workloads.
func newResultLine(rep runReport, trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := resultLine{Metrics: map[string]lineMetric{}}
	for _, w := range rep.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, m := range w.Metrics {
			if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == m.Name }) {
				continue
			}
			key := m.Name
			if len(rep.Workloads) > 1 {
				key = w.Name + "/" + m.Name
			}
			line.Metrics[key] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}

// appendReport appends rep to path as one JSON line.
func appendReport(path string, rep runReport) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
