// Command paperbench regenerates every table and figure of the paper's
// evaluation section and writes the text reports to stdout and (optionally)
// a results directory. With the telemetry flags it additionally dumps
// machine-readable metrics and traces for every simulation run, and with the
// ops-plane flags it exposes the sweep live: streaming progress records,
// hierarchical span traces, a stall watchdog, and an embedded HTTP endpoint.
//
// Usage:
//
//	paperbench                      # all figures, full configuration
//	paperbench -fig 12              # one figure
//	paperbench -quick               # scaled-down fast configuration
//	paperbench -workloads fdtd2d,bfs
//	paperbench -out results/        # also write one file per figure
//	paperbench -json                # tables as JSON instead of text
//	paperbench -metrics-out m/      # per-run Prometheus dumps
//	paperbench -trace-out t/        # per-run Chrome traces
//	paperbench -progress -ops-listen :8080     # live sweep observability
//	paperbench -span-trace sweep.trace.json    # span tree for Perfetto
//	paperbench -watchdog 30s -watchdog-dir diag/ -watchdog-cancel
//
// The simulator's wall-time and allocation benchmark is bench/ (run it
// with `sh bench/run.sh`), not this command.
//
// Exit codes: 0 on success, 1 on output errors, 2 on usage errors, 4 when
// the watchdog declared cells stalled (and -watchdog-cancel let the sweep
// complete without them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shmgpu/internal/experiments"
	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/report"
	"shmgpu/internal/scheme"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig            = fs.String("fig", "all", "figure/table to regenerate: 5, 10, 11, 12, 13, 14, 15, 16, vii, ix, summary, all")
		quick          = fs.Bool("quick", false, "use the scaled-down fast configuration")
		workloads      = fs.String("workloads", "", "comma-separated workload subset (default: the 15 memory-intensive ones)")
		out            = fs.String("out", "", "directory to write per-figure reports to")
		jsonOut        = fs.Bool("json", false, "emit tables as JSON instead of text")
		metricsOut     = fs.String("metrics-out", "", "directory for per-run Prometheus metrics dumps")
		traceOut       = fs.String("trace-out", "", "directory for per-run Chrome trace-event JSON files")
		sampleInterval = fs.Uint64("sample-interval", 5000, "timeline sampling period in cycles for instrumented runs")
		workers        = fs.Int("workers", 0, "prefetch worker-pool size for figure sweeps (0 = NumCPU)")
		quiet          = fs.Bool("q", false, "suppress informational logging (errors still print)")
		verbose        = fs.Bool("v", false, "verbose logging")
	)
	var opsFlags obs.Flags
	opsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log := obs.NewLogger(stderr, "paperbench", obs.LevelFromFlags(*quiet, *verbose))
	if *workers < 0 {
		log.Errorf("-workers must be non-negative")
		return 2
	}

	cfg := gpu.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	var wls []string
	if *workloads != "" {
		for _, w := range strings.Split(*workloads, ",") {
			w = strings.TrimSpace(w)
			if _, err := workload.ByName(w); err != nil {
				log.Errorf("%v", err)
				return 2
			}
			wls = append(wls, w)
		}
	}
	r := experiments.NewRunner(cfg, wls)
	r.SetWorkers(*workers)

	for _, dir := range []string{*out, *metricsOut, *traceOut, opsFlags.WatchdogDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Errorf("%v", err)
				return 1
			}
		}
	}

	type genFn func() *report.Table
	type gen struct {
		id       string
		name     string
		fn       genFn
		prefetch []scheme.Scheme
		accuracy bool
		extra    bool // excluded from -fig all (expensive ablations)
	}
	gens := []gen{
		{"5", "fig05_characterization", r.Fig5, []scheme.Scheme{scheme.SHMUpperBound}, false, false},
		{"10", "fig10_readonly_prediction", r.Fig10, nil, true, false},
		{"11", "fig11_streaming_prediction", r.Fig11, nil, true, false},
		{"12", "fig12_normalized_ipc", r.Fig12, []scheme.Scheme{scheme.Baseline, scheme.Naive, scheme.CommonCtr, scheme.PSSM, scheme.SHM, scheme.SHMUpperBound}, false, false},
		{"13", "fig13_optimization_breakdown", r.Fig13, []scheme.Scheme{scheme.Baseline, scheme.PSSM, scheme.PSSMCtr, scheme.SHMReadOnly, scheme.SHM, scheme.SHMCctr}, false, false},
		{"14", "fig14_bandwidth_overhead", r.Fig14, []scheme.Scheme{scheme.Naive, scheme.PSSM, scheme.SHMReadOnly, scheme.SHM}, false, false},
		{"15", "fig15_energy", r.Fig15, []scheme.Scheme{scheme.Baseline, scheme.Naive, scheme.CommonCtr, scheme.PSSM, scheme.SHM}, false, false},
		{"16", "fig16_victim_cache", r.Fig16, []scheme.Scheme{scheme.Baseline, scheme.SHM, scheme.SHMvL2}, false, false},
		// The oversubscription sweep runs its own cells (the tier-off
		// subset and the labelled ratio cells) on the runner's pool, so it
		// carries no prefetch list here.
		{"oversub", "oversubscription_sweep", r.FigOversub, nil, false, false},
		{"vii", "table07_bandwidth_utilization", r.TableVII, []scheme.Scheme{scheme.Baseline}, false, false},
		{"ix", "table09_hardware_overhead", experiments.TableIX, nil, false, false},
		{"summary", "summary_headline", r.Summary, []scheme.Scheme{scheme.Baseline, scheme.Naive, scheme.CommonCtr, scheme.PSSM, scheme.SHM, scheme.SHMUpperBound}, false, false},
		{"ablation-trackers", "ablation_trackers", r.AblationTrackers, []scheme.Scheme{scheme.Baseline}, false, true},
		{"ablation-lead", "ablation_monitor_lead", r.AblationMonitorLead, []scheme.Scheme{scheme.Baseline}, false, true},
		{"ablation-timeout", "ablation_timeout", r.AblationTimeout, []scheme.Scheme{scheme.Baseline}, false, true},
		{"ablation-mdc", "ablation_mdc_size", r.AblationMDCSize, []scheme.Scheme{scheme.Baseline}, false, true},
	}

	var sel []gen
	for _, g := range gens {
		if *fig == "all" && g.extra {
			continue
		}
		if *fig != "all" && *fig != g.id {
			continue
		}
		sel = append(sel, g)
	}
	if len(sel) == 0 {
		log.Errorf("unknown figure %q", *fig)
		return 2
	}

	// The cell total is a best-effort ETA denominator: the union of the
	// selected figures' prefetch cells times the workload count. Figures
	// share cells through the runner's cache, so actually-run cells can
	// undershoot this; the oversubscription sweep's ratio cells and the
	// ablation points are not counted, so they can overshoot it. The
	// progress record clamps.
	wlCount := len(wls)
	if wlCount == 0 {
		wlCount = len(workload.MemoryIntensive())
	}
	cellKinds := make(map[string]bool)
	for _, g := range sel {
		for _, sch := range g.prefetch {
			cellKinds[sch.Name] = true
		}
		if g.accuracy {
			cellKinds["SHM/acc"] = true
		}
	}
	plane, shutdown, err := opsFlags.Start("paperbench", len(cellKinds)*wlCount, stderr, log)
	if err != nil {
		log.Errorf("%v", err)
		return 1
	}
	r.SetOps(plane)

	// The telemetry sink also feeds the live /metrics renderer, so the ops
	// endpoint implies an instrumented sweep even without dump directories.
	if *metricsOut != "" || *traceOut != "" || opsFlags.OpsListen != "" {
		installSink(r, plane, cfg, *quick, *sampleInterval, *metricsOut, *traceOut, log)
	}

	code := 0
	for _, g := range sel {
		log.Debugf("generating %s", g.name)
		start := time.Now()
		if len(g.prefetch) > 0 {
			r.Prefetch(g.prefetch, false)
		}
		if g.accuracy {
			r.Prefetch([]scheme.Scheme{scheme.SHM}, true)
		}
		table := g.fn()
		var text string
		if *jsonOut {
			buf, err := json.MarshalIndent(table, "", " ")
			if err != nil {
				log.Errorf("%v", err)
				code = 1
				break
			}
			text = string(buf) + "\n"
			fmt.Fprintln(stdout, text)
		} else {
			text = table.String()
			fmt.Fprintln(stdout, text)
			fmt.Fprintf(stdout, "(generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		}
		if *out != "" {
			ext := ".txt"
			if *jsonOut {
				ext = ".json"
			}
			path := filepath.Join(*out, g.name+ext)
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				log.Errorf("%v", err)
				code = 1
				break
			}
		}
	}

	if err := r.Err(); err != nil {
		log.Errorf("%v", err)
		if code == 0 {
			code = 1
		}
	}
	stalled := plane.Stalled()
	m := telemetry.Manifest{
		Tool:          "paperbench",
		SchemaVersion: telemetry.SchemaVersion,
		Quick:         *quick,
		SMs:           cfg.SMs,
		Partitions:    cfg.Partitions,
		MaxCycles:     cfg.MaxCycles,
		GitRev:        telemetry.GitRevision("."),
	}
	if err := shutdown(m); err != nil {
		log.Errorf("%v", err)
		if code == 0 {
			code = 1
		}
	}
	if len(stalled) > 0 {
		log.Errorf("%d cell(s) stalled: %s", len(stalled), strings.Join(stalled, ", "))
		if code == 0 {
			code = 4
		}
	}
	return code
}

// installSink wires per-run telemetry dumps into the runner. Each completed
// simulation writes <dir>/<workload>_<scheme>.prom and/or .trace.json; file
// names are unique per (workload, scheme) so the concurrent prefetch workers
// never share a file. The same render path is installed as the ops plane's
// /metrics handler, so a scrape after the last cell byte-matches the
// committed dump. Dump failures are reported but do not fail the run.
func installSink(r *experiments.Runner, plane *obs.Plane, cfg gpu.Config, quick bool, sampleInterval uint64, metricsDir, traceDir string, log *obs.Logger) {
	tcfg := telemetry.Config{SampleInterval: sampleInterval, CaptureEvents: traceDir != ""}
	gitRev := telemetry.GitRevision(".")
	r.SetTelemetrySink(tcfg, func(res gpu.Result, col *telemetry.Collector) {
		sum := experiments.TelemetrySummary(res)
		m := telemetry.Manifest{
			Tool:           "paperbench",
			SchemaVersion:  telemetry.SchemaVersion,
			Workload:       res.Workload,
			Scheme:         res.Scheme,
			Quick:          quick,
			SMs:            cfg.SMs,
			Partitions:     cfg.Partitions,
			MaxCycles:      cfg.MaxCycles,
			SampleInterval: sampleInterval,
			GitRev:         gitRev,
		}
		stem := res.Workload + "_" + res.Scheme
		dump := func(dir, suffix string, fn func(io.Writer) error) {
			if dir == "" {
				return
			}
			path := filepath.Join(dir, stem+suffix)
			f, err := os.Create(path)
			if err != nil {
				log.Errorf("%v", err)
				return
			}
			defer f.Close()
			if err := fn(f); err != nil {
				log.Errorf("writing %s: %v", path, err)
			}
		}
		dump(metricsDir, ".prom", func(w io.Writer) error {
			return telemetry.WritePrometheus(w, col, sum, m)
		})
		dump(traceDir, ".trace.json", func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, col, sum, m)
		})
		plane.SetMetrics(func(w io.Writer) error {
			return telemetry.WritePrometheus(w, col, sum, m)
		})
	})
}
