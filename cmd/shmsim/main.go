// Command shmsim runs one workload under one secure-memory design and
// prints detailed statistics: IPC (absolute and normalized), per-class DRAM
// traffic, cache behaviour, detector events, and predictor accuracy. With
// the telemetry flags it also exports machine-readable traces and metrics,
// and with the ops-plane flags the run is observable live (progress records,
// span traces, a stall watchdog, and an embedded HTTP endpoint).
//
// Usage:
//
//	shmsim -workload fdtd2d -scheme SHM
//	shmsim -workload bfs -scheme Naive -quick
//	shmsim -workload fdtd2d -scheme SHM -quick -trace-out t.json -metrics-out m.prom
//	shmsim -workload fdtd2d -scheme SHM -quick -json
//	shmsim -workload fdtd2d -scheme SHM -progress -ops-listen :8080
//	shmsim -workload fdtd2d -scheme SHM -watchdog 30s -watchdog-cancel
//	shmsim -workload atax -scheme SHM -host-tier -oversub-ratio 0.5
//	shmsim -workload atax -scheme SHM -host-tier -oversub-ratio 0.5 -page-bytes 16384
//	shmsim -workload streamcluster -scheme SHM -host-tier -oversub-ratio 0.5 -prefetch stream
//	shmsim -list
//
// Exit codes: 0 on success, 1 on output/runtime errors, 2 on usage errors
// (bad flags, unknown workload or scheme), 4 when the watchdog declared the
// run stalled and cancelled it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"shmgpu"
	"shmgpu/internal/invariant"
	"shmgpu/internal/obs"
	"shmgpu/internal/report"
	"shmgpu/internal/scheme"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("shmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl             = fs.String("workload", "fdtd2d", "benchmark name (see -list)")
		sch            = fs.String("scheme", "SHM", "secure-memory design (see -list)")
		quick          = fs.Bool("quick", false, "use the scaled-down fast configuration")
		list           = fs.Bool("list", false, "list workloads and schemes, then exit")
		accuracy       = fs.Bool("accuracy", false, "also report predictor accuracy (slower; 0 predictions for a predictor the design lacks)")
		jsonOut        = fs.Bool("json", false, "print the run summary as JSON instead of text tables")
		traceOut       = fs.String("trace-out", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
		metricsOut     = fs.String("metrics-out", "", "write a Prometheus text-format metrics dump")
		jsonlOut       = fs.String("jsonl-out", "", "write a JSONL event/sample trace")
		sampleInterval = fs.Uint64("sample-interval", 5000, "timeline sampling period in cycles (0 disables the timeline)")
		seed           = fs.Int64("seed", 0, "workload seed for the warp programs' random streams (0 = the benchmark's built-in seed)")
		check          = fs.Bool("check", false, "enable the runtime invariant sanitizer (model self-checks; slower)")
		quiet          = fs.Bool("q", false, "suppress informational logging (errors still print)")
		verbose        = fs.Bool("v", false, "verbose logging")
		hostTier       = fs.Bool("host-tier", false, "enable the host-backed memory tier (UVM demand paging over a modeled PCIe link)")
		oversubRatio   = fs.Float64("oversub-ratio", 0, "device frame capacity as a fraction of the workload footprint (required with -host-tier; >= 1.0 fits entirely)")
		pageBytes      = fs.Uint64("page-bytes", 0, "UVM migration page size in bytes (0 = the 64 KiB default; else a power of two from 4 KiB to 2 MiB)")
		prefetch       = fs.String("prefetch", "", "UVM migration-ahead policy: none (default), stride (per-fault-stream sequential stride detection), or stream (streaming-detector-driven bulk fetch with eager eviction)")
	)
	var opsFlags obs.Flags
	opsFlags.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: shmsim [flags]\n\nRuns one workload under one secure-memory design.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		// fs already printed the error and usage.
		return 2
	}
	log := obs.NewLogger(stderr, "shmsim", obs.LevelFromFlags(*quiet, *verbose))

	if *list {
		fmt.Fprintln(stdout, "Workloads (paper Table VII):")
		for _, w := range shmgpu.Workloads() {
			fmt.Fprintf(stdout, "  %s\n", w)
		}
		fmt.Fprintln(stdout, "\nSchemes (paper Table VIII):")
		for _, s := range shmgpu.Schemes() {
			desc, _ := shmgpu.SchemeDescription(s)
			fmt.Fprintf(stdout, "  %-16s %s\n", s, desc)
		}
		return 0
	}

	cfg := shmgpu.DefaultConfig()
	if *quick {
		cfg = shmgpu.QuickConfig()
	}
	if *hostTier {
		cfg.HostTier = true
		cfg.OversubRatio = *oversubRatio
		cfg.UVMPageBytes = *pageBytes
		cfg.UVMPrefetch = *prefetch
	} else if *oversubRatio != 0 || *pageBytes != 0 || *prefetch != "" {
		log.Errorf("-oversub-ratio, -page-bytes and -prefetch require -host-tier")
		return 2
	}
	if err := cfg.Validate(); err != nil {
		log.Errorf("%v", err)
		return 2
	}
	schObj, err := scheme.ByName(*sch)
	if err != nil {
		log.Errorf("%v (run with -list to see valid names)", err)
		return 2
	}
	if *check {
		invariant.SetEnabled(true)
	}
	effSeed, err := shmgpu.EffectiveSeed(*wl, *seed)
	if err != nil {
		log.Errorf("%v (run with -list to see valid names)", err)
		return 2
	}

	instrument := *traceOut != "" || *metricsOut != "" || *jsonlOut != "" || *jsonOut
	tcfg := telemetry.Config{
		SampleInterval: *sampleInterval,
		CaptureEvents:  *traceOut != "" || *jsonlOut != "",
	}
	spec := shmgpu.RunSpec{Config: cfg, Workload: *wl, Seed: *seed, Scheme: schObj}

	// Two observable cells: the baseline reference run and the requested
	// run. The shutdown writes the span trace with whatever manifest fields
	// are known by then, so it is deferred against every return path.
	plane, shutdown, err := opsFlags.Start("shmsim", 2, stderr, log)
	if err != nil {
		log.Errorf("%v", err)
		return 1
	}
	traceManifest := &telemetry.Manifest{
		Tool:          "shmsim",
		SchemaVersion: telemetry.SchemaVersion,
		Workload:      *wl,
		Scheme:        *sch,
		Quick:         *quick,
	}
	defer func() {
		if err := shutdown(*traceManifest); err != nil {
			log.Errorf("%v", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// observed executes s as the named ops-plane cell.
	observed := func(s shmgpu.RunSpec, cell string) (shmgpu.RunOutput, error) {
		s.Observe = plane.BeginRun(cell)
		out, err := shmgpu.Execute(s)
		s.Observe.Done(out.Result.Cycles, out.Result.Completed)
		return out, err
	}

	started := time.Now()
	baseSpec := spec
	baseSpec.Scheme = scheme.Baseline
	baseOut, err := observed(baseSpec, *wl+"/Baseline")
	if err != nil {
		log.Errorf("%v (run with -list to see valid names)", err)
		return 2
	}
	base := baseOut.Result
	if base.Cancelled {
		log.Errorf("baseline run %s stalled and was cancelled by the watchdog", *wl)
		return 4
	}

	if instrument {
		spec.Telemetry = &tcfg
	}
	spec.Scheme.Options.TrackAccuracy = *accuracy
	out, err := observed(spec, *wl+"/"+*sch)
	res, col := out.Result, out.Collector
	if err != nil {
		log.Errorf("%v (run with -list to see valid names)", err)
		return 2
	}
	wall := time.Since(started)
	if res.Cancelled {
		log.Errorf("run %s/%s stalled and was cancelled by the watchdog (diagnostics in the -watchdog-dir bundle)", *wl, *sch)
		return 4
	}

	sum := shmgpu.Summarize(res)
	manifest := shmgpu.Manifest{
		Tool:           "shmsim",
		SchemaVersion:  telemetry.SchemaVersion,
		Workload:       *wl,
		Scheme:         *sch,
		Quick:          *quick,
		SMs:            cfg.SMs,
		Partitions:     cfg.Partitions,
		MaxCycles:      cfg.MaxCycles,
		SampleInterval: *sampleInterval,
		Seed:           effSeed,
		GitRev:         telemetry.GitRevision("."),
		Started:        started.UTC().Format(time.RFC3339),
		WallTime:       wall.Round(time.Millisecond).String(),
	}
	*traceManifest = manifest
	if col != nil {
		// The live /metrics endpoint serves the same renderer the
		// -metrics-out dump uses, so a final scrape byte-matches the file.
		plane.SetMetrics(func(w io.Writer) error {
			return telemetry.WritePrometheus(w, col, sum, manifest)
		})
	}

	if c := writeExports(log, col, sum, manifest, *traceOut, *metricsOut, *jsonlOut); c != 0 {
		return c
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		out := struct {
			Manifest shmgpu.Manifest   `json:"manifest"`
			Summary  shmgpu.RunSummary `json:"summary"`
			Baseline struct {
				IPC           float64 `json:"ipc"`
				NormalizedIPC float64 `json:"normalized_ipc"`
			} `json:"baseline"`
		}{Manifest: manifest, Summary: sum}
		out.Baseline.IPC = base.IPC()
		if base.IPC() > 0 {
			out.Baseline.NormalizedIPC = res.IPC() / base.IPC()
		}
		if err := enc.Encode(out); err != nil {
			log.Errorf("%v", err)
			return 1
		}
		return 0
	}

	printText(stdout, res, base, *wl, *sch, *accuracy)
	if col != nil {
		if t := report.TimelineTable(col.Timeline()); t != nil {
			fmt.Fprintln(stdout, t)
		}
	}
	return 0
}

// writeExports writes the requested telemetry outputs; any failure is an IO
// error (exit 1).
func writeExports(log *obs.Logger, col *shmgpu.Collector, sum shmgpu.RunSummary, m shmgpu.Manifest, traceOut, metricsOut, jsonlOut string) int {
	write := func(path string, fn func(io.Writer) error) int {
		if path == "" {
			return 0
		}
		f, err := os.Create(path)
		if err != nil {
			log.Errorf("%v", err)
			return 1
		}
		defer f.Close()
		if err := fn(f); err != nil {
			log.Errorf("writing %s: %v", path, err)
			return 1
		}
		if err := f.Close(); err != nil {
			log.Errorf("closing %s: %v", path, err)
			return 1
		}
		return 0
	}
	if code := write(traceOut, func(w io.Writer) error {
		return telemetry.WriteChromeTrace(w, col, sum, m)
	}); code != 0 {
		return code
	}
	if code := write(metricsOut, func(w io.Writer) error {
		return telemetry.WritePrometheus(w, col, sum, m)
	}); code != 0 {
		return code
	}
	return write(jsonlOut, func(w io.Writer) error {
		return telemetry.WriteJSONL(w, col, sum, m)
	})
}

func printText(stdout io.Writer, res, base shmgpu.Result, wl, sch string, accuracy bool) {
	fmt.Fprintf(stdout, "workload=%s scheme=%s\n\n", wl, sch)
	t := report.NewTable("Performance", "metric", "value")
	t.AddRow("cycles", res.Cycles)
	t.AddRow("instructions", res.Instructions)
	t.AddRow("IPC", res.IPC())
	t.AddRow("baseline IPC", base.IPC())
	if base.IPC() > 0 {
		t.AddRow("normalized IPC", res.IPC()/base.IPC())
		t.AddRow("performance overhead", report.Percent(1-res.IPC()/base.IPC()))
	}
	t.AddRow("DRAM bus utilization", report.Percent(res.BusUtilization))
	t.AddRow("run completed", res.Completed)
	fmt.Fprintln(stdout, t)

	tr := report.NewTable("DRAM traffic", "class", "read bytes", "write bytes")
	for c := stats.TrafficClass(0); c < stats.TrafficClass(stats.NumTrafficClasses); c++ {
		tr.AddRow(c.String(), res.Traffic.ReadBytes[c], res.Traffic.WriteBytes[c])
	}
	tr.AddRow("metadata overhead", report.Percent(res.BandwidthOverhead()), "")
	fmt.Fprintln(stdout, tr)

	cc := report.NewTable("Caches", "cache", "accesses", "miss rate")
	cc.AddRow("L1 (all SMs)", res.L1.Accesses(), report.Percent(res.L1.MissRate()))
	cc.AddRow("L2 (all banks)", res.L2.Accesses(), report.Percent(res.L2.MissRate()))
	cc.AddRow("counter MDC", res.Ctr.Accesses(), report.Percent(res.Ctr.MissRate()))
	cc.AddRow("MAC MDC", res.MAC.Accesses(), report.Percent(res.MAC.MissRate()))
	cc.AddRow("BMT MDC", res.BMT.Accesses(), report.Percent(res.BMT.MissRate()))
	fmt.Fprintln(stdout, cc)

	if names := res.Reg.Names(); len(names) > 0 {
		ev := report.NewTable("MEE events", "event", "count")
		for _, n := range names {
			ev.AddRow(n, res.Reg.Get(n))
		}
		fmt.Fprintln(stdout, ev)
	}

	if accuracy {
		acc := report.NewTable("Predictor accuracy", "predictor", "predictions", "accuracy")
		acc.AddRow("read-only", res.ROAccuracy.Total(), report.PercentOrDash(res.ROAccuracy.Accuracy()))
		acc.AddRow("streaming", res.StreamAccuracy.Total(), report.PercentOrDash(res.StreamAccuracy.Accuracy()))
		fmt.Fprintln(stdout, acc)
	}
}
