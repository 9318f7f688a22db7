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
//	shmsim -workload fdtd2d -scheme SHM -quick -snapshot-out warm.snap -snapshot-at 50000
//	shmsim -workload fdtd2d -scheme SHM -quick -restore warm.snap
//	shmsim -workload atax -scheme SHM -host-tier -oversub-ratio 0.5
//	shmsim -workload atax -scheme SHM -host-tier -oversub-ratio 0.5 -migration-policy fifo -host-integrity hostside
//	shmsim -workload streamcluster -scheme SHM -host-tier -oversub-ratio 0.5 -prefetch stream -batch-pages 8
//	shmsim -workload atax -scheme SHM -host-tier -oversub-ratio 0.5 -prefetch stride -large-pages
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
		accuracy       = fs.Bool("accuracy", false, "also report predictor accuracy (slower)")
		jsonOut        = fs.Bool("json", false, "print the run summary as JSON instead of text tables")
		traceOut       = fs.String("trace-out", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
		metricsOut     = fs.String("metrics-out", "", "write a Prometheus text-format metrics dump")
		jsonlOut       = fs.String("jsonl-out", "", "write a JSONL event/sample trace")
		sampleInterval = fs.Uint64("sample-interval", 5000, "timeline sampling period in cycles (0 disables the timeline)")
		seed           = fs.Int64("seed", 0, "workload seed for the warp programs' random streams (0 = the benchmark's built-in seed)")
		check          = fs.Bool("check", false, "enable the runtime invariant sanitizer (model self-checks; slower)")
		quiet          = fs.Bool("q", false, "suppress informational logging (errors still print)")
		verbose        = fs.Bool("v", false, "verbose logging")
		snapshotOut    = fs.String("snapshot-out", "", "warm the run to -snapshot-at, write a resumable state snapshot to this path, and exit")
		snapshotAt     = fs.Uint64("snapshot-at", 0, "cycle boundary for -snapshot-out (must be positive)")
		restorePath    = fs.String("restore", "", "resume a snapshot written by -snapshot-out instead of simulating the warmup (workload, scheme, seed and telemetry flags must match the capturing run)")
		hostTier       = fs.Bool("host-tier", false, "enable the host-backed memory tier (UVM demand paging over a modeled PCIe link)")
		oversubRatio   = fs.Float64("oversub-ratio", 0, "device frame capacity as a fraction of the workload footprint (required with -host-tier; >= 1.0 fits entirely)")
		pageBytes      = fs.Uint64("page-bytes", 0, "UVM migration page size in bytes (0 = the 64 KiB default; must be a power of two)")
		migrationPol   = fs.String("migration-policy", "", "UVM eviction victim policy: lru (default) or fifo")
		hostIntegrity  = fs.String("host-integrity", "", "security metadata handling across migrations: rebuild (default; MEE re-encrypts on fault-in) or hostside (host-managed, cheaper)")
		prefetch       = fs.String("prefetch", "", "UVM migration-ahead policy: none (default), stride (per-fault-stream sequential stride detection), or stream (streaming-detector-driven bulk fetch with eager eviction)")
		prefetchDegree = fs.Int("prefetch-degree", 0, "pages fetched ahead per prefetch trigger (0 = the hostmem default)")
		batchPages     = fs.Int("batch-pages", 0, "max adjacent pages coalesced into one batched PCIe transaction (0 = the hostmem default)")
		largePages     = fs.Bool("large-pages", false, "migrate at 2 MiB large-page granularity with 64 KiB sub-page dirty tracking (mutually exclusive with -page-bytes)")
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
		cfg.UVMMigrationPolicy = *migrationPol
		cfg.UVMHostIntegrity = *hostIntegrity
		cfg.UVMPrefetch = *prefetch
		cfg.UVMPrefetchDegree = *prefetchDegree
		cfg.UVMBatchPages = *batchPages
		cfg.UVMLargePages = *largePages
	} else if *oversubRatio != 0 || *pageBytes != 0 || *migrationPol != "" || *hostIntegrity != "" ||
		*prefetch != "" || *prefetchDegree != 0 || *batchPages != 0 || *largePages {
		log.Errorf("-oversub-ratio, -page-bytes, -migration-policy, -host-integrity, -prefetch, -prefetch-degree, -batch-pages and -large-pages require -host-tier")
		return 2
	}
	if err := cfg.Validate(); err != nil {
		log.Errorf("%v", err)
		return 2
	}
	if _, err := scheme.ByName(*sch); err != nil {
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

	// Snapshot capture is its own mode: warm, serialize, exit. The snapshot
	// embeds the collector state, so the restoring invocation must pass the
	// same telemetry flags (the restore path validates this).
	if *snapshotOut != "" {
		switch {
		case *restorePath != "":
			log.Errorf("-snapshot-out and -restore are mutually exclusive")
			return 2
		case *accuracy:
			log.Errorf("-snapshot-out cannot be combined with -accuracy")
			return 2
		case *snapshotAt == 0:
			log.Errorf("-snapshot-out requires -snapshot-at <cycle>")
			return 2
		}
		written, err := shmgpu.WriteSnapshot(cfg, *wl, *sch, *seed, *snapshotAt, tcfg, *snapshotOut)
		if err != nil {
			log.Errorf("%v", err)
			return 1
		}
		if !written {
			log.Errorf("workload %s completed before cycle %d; no snapshot written", *wl, *snapshotAt)
			return 1
		}
		fmt.Fprintf(stdout, "snapshot written to %s (cycle %d, workload=%s scheme=%s seed=%d)\n",
			*snapshotOut, *snapshotAt, *wl, *sch, effSeed)
		return 0
	}
	if *restorePath != "" && *accuracy {
		log.Errorf("-restore cannot be combined with -accuracy")
		return 2
	}

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

	started := time.Now()
	base, _, err := shmgpu.RunObservedSeeded(cfg, *wl, "Baseline", *seed, telemetry.Config{}, plane.BeginRun(*wl+"/Baseline"))
	if err != nil {
		log.Errorf("%v (run with -list to see valid names)", err)
		return 2
	}
	if base.Cancelled {
		log.Errorf("baseline run %s stalled and was cancelled by the watchdog", *wl)
		return 4
	}

	var res shmgpu.Result
	var col *shmgpu.Collector
	switch {
	case *restorePath != "":
		res, col, err = shmgpu.RestoreRun(cfg, *wl, *sch, *seed, tcfg, *restorePath)
	case *accuracy:
		schObj, _ := scheme.ByName(*sch)
		r := shmgpu.NewRunner(cfg, []string{*wl})
		r.SetOps(plane)
		res = r.RunWithAccuracy(*wl, schObj)
	case instrument:
		res, col, err = shmgpu.RunObservedSeeded(cfg, *wl, *sch, *seed, tcfg, plane.BeginRun(*wl+"/"+*sch))
	default:
		res, _, err = shmgpu.RunObservedSeeded(cfg, *wl, *sch, *seed, telemetry.Config{}, plane.BeginRun(*wl+"/"+*sch))
	}
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
		acc.AddRow("read-only", res.ROAccuracy.Total(), report.Percent(res.ROAccuracy.Accuracy()))
		acc.AddRow("streaming", res.StreamAccuracy.Total(), report.Percent(res.StreamAccuracy.Accuracy()))
		fmt.Fprintln(stdout, acc)
	}
}
