// Package shmgpu reproduces "Adaptive Security Support for Heterogeneous
// Memory on GPUs" (Yuan, Awad, Yudha, Solihin, Zhou — HPCA 2022) as a Go
// library.
//
// The paper proposes SHM, adaptive secure-memory support for GPU device
// memory: read-only regions share one on-chip encryption counter (no
// per-block counters, no integrity-tree coverage), and streaming-accessed
// chunks use a coarse per-chunk MAC instead of per-block MACs, with two
// lightweight hardware detectors deciding which mechanism each access uses.
//
// The module has two faces:
//
//   - The functional library (package shmgpu/securemem): a software secure
//     memory that really encrypts, authenticates and freshness-protects
//     data, exposes the attacker's view of off-chip memory, and detects
//     tampering and replay — including the paper's cross-kernel replay —
//     with the adaptive mechanisms implemented faithfully.
//
//   - The timing simulator (this package's Run API over internal/gpu):
//     a cycle-level GPU memory-hierarchy model (SMs, sectored L1/L2 with
//     MSHRs, 12 GDDR partitions) with a Memory Encryption Engine per
//     partition, used to reproduce every figure of the paper's evaluation:
//     normalized IPC, bandwidth overheads, predictor accuracy, energy, and
//     the L2-victim-cache study.
//
// Quick start:
//
//	res, err := shmgpu.Run(shmgpu.QuickConfig(), "fdtd2d", "SHM")
//	base, _ := shmgpu.Run(shmgpu.QuickConfig(), "fdtd2d", "Baseline")
//	fmt.Printf("normalized IPC: %.3f\n", res.IPC()/base.IPC())
//
// The cmd/paperbench binary regenerates all paper tables and figures;
// cmd/shmsim runs single simulations with detailed statistics; and
// cmd/attackdemo drives the functional library under physical attacks.
package shmgpu

import (
	"fmt"

	"shmgpu/internal/experiments"
	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/report"
	"shmgpu/internal/scheme"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// Config is the simulated GPU configuration (paper Table V by default).
type Config = gpu.Config

// Result is one simulation run's outcome: cycles, instructions, per-class
// DRAM traffic, cache and predictor statistics.
type Result = gpu.Result

// DefaultConfig returns the paper's baseline GPU configuration: 30 SMs,
// 12 memory partitions, 3 MB L2, 336 GB/s GDDR.
func DefaultConfig() Config { return gpu.DefaultConfig() }

// QuickConfig returns a scaled-down configuration for fast experimentation.
func QuickConfig() Config { return experiments.QuickConfig() }

// Workloads lists the benchmark models (paper Table VII).
func Workloads() []string { return workload.Names() }

// MemoryIntensiveWorkloads lists the 15 workloads the paper's averages use.
func MemoryIntensiveWorkloads() []string { return workload.MemoryIntensive() }

// Schemes lists the secure-memory designs (paper Table VIII), plus
// "Baseline" (the insecure GPU results are normalized against).
func Schemes() []string {
	var out []string
	for _, s := range scheme.All() {
		out = append(out, s.Name)
	}
	return out
}

// SchemeDescription returns the one-line description of a design.
func SchemeDescription(name string) (string, error) {
	s, err := scheme.ByName(name)
	if err != nil {
		return "", err
	}
	return s.Description, nil
}

// TelemetryConfig configures an observability Collector (sampling interval,
// event capture).
type TelemetryConfig = telemetry.Config

// Collector aggregates probe events, histograms and the sampled timeline of
// one instrumented run. See package internal/telemetry for the exporters.
type Collector = telemetry.Collector

// RunSummary is the neutral end-of-run summary the telemetry exporters
// consume; build one with Summarize.
type RunSummary = telemetry.RunSummary

// Manifest identifies one run in every telemetry export.
type Manifest = telemetry.Manifest

// RunWithTelemetry simulates one workload under one design with the
// observability layer attached: probe events, latency histograms and an
// interval-sampled timeline accumulate in the returned Collector.
func RunWithTelemetry(cfg Config, workloadName, schemeName string, tcfg TelemetryConfig) (Result, *Collector, error) {
	return RunWithTelemetrySeeded(cfg, workloadName, schemeName, 0, tcfg)
}

// RunWithTelemetrySeeded is RunWithTelemetry with an explicit workload
// seed. Seed 0 keeps the benchmark's built-in seed; any other value
// rebases the warp programs' random streams. Runs with identical
// (config, workload, scheme, seed) are bit-for-bit reproducible.
func RunWithTelemetrySeeded(cfg Config, workloadName, schemeName string, seed int64, tcfg TelemetryConfig) (Result, *Collector, error) {
	sch, err := scheme.ByName(schemeName)
	if err != nil {
		return Result{}, nil, err
	}
	return experiments.RunInstrumentedSeeded(cfg, workloadName, seed, sch, tcfg)
}

// RunObservedSeeded is RunWithTelemetrySeeded with a live-observability
// run handle attached (see internal/obs): the simulator feeds the run's
// heartbeat and phase spans and honours its cancel flag. A nil orun is
// exactly RunWithTelemetrySeeded.
func RunObservedSeeded(cfg Config, workloadName, schemeName string, seed int64, tcfg TelemetryConfig, orun *obs.Run) (Result, *Collector, error) {
	sch, err := scheme.ByName(schemeName)
	if err != nil {
		return Result{}, nil, err
	}
	return experiments.RunObservedSeeded(cfg, workloadName, seed, sch, tcfg, orun)
}

// ForkSpec selects one forked child's execution strategy (shard count and
// fast-forward mode) — the knobs proven byte-neutral by the equivalence
// corpora, and therefore the only ones a forked child may vary.
type ForkSpec = experiments.ForkSpec

// RunForkedSeeded warms one (workload, scheme, seed) run to warmCycle,
// captures the complete simulator state once, and forks one child per
// spec from the snapshot, amortizing the warmup across the specs. Every
// child's Result, statistics, and telemetry are byte-identical to the
// same configuration run from scratch. If the workload completes before
// warmCycle, each spec silently falls back to a from-scratch run.
func RunForkedSeeded(cfg Config, workloadName, schemeName string, seed int64, warmCycle uint64, tcfg TelemetryConfig, specs []ForkSpec) ([]Result, []*Collector, error) {
	sch, err := scheme.ByName(schemeName)
	if err != nil {
		return nil, nil, err
	}
	return experiments.RunForkedSeeded(cfg, workloadName, seed, sch, warmCycle, tcfg, specs)
}

// WriteSnapshot warms a run to warmCycle and writes its state to path
// (checksummed and atomically renamed — a killed writer never leaves a
// loadable file). It reports whether a snapshot was written: a workload
// finishing before warmCycle leaves nothing to capture.
func WriteSnapshot(cfg Config, workloadName, schemeName string, seed int64, warmCycle uint64, tcfg TelemetryConfig, path string) (bool, error) {
	sch, err := scheme.ByName(schemeName)
	if err != nil {
		return false, err
	}
	return experiments.WriteSnapshotSeeded(cfg, workloadName, seed, sch, warmCycle, tcfg, path)
}

// RestoreRun loads a snapshot written by WriteSnapshot and resumes it to
// completion. Workload, scheme, seed, and telemetry configuration must
// match the capturing run; cfg may vary only the execution-strategy knobs
// (shards, fast-forward).
func RestoreRun(cfg Config, workloadName, schemeName string, seed int64, tcfg TelemetryConfig, path string) (Result, *Collector, error) {
	sch, err := scheme.ByName(schemeName)
	if err != nil {
		return Result{}, nil, err
	}
	return experiments.RestoreRunSeeded(cfg, workloadName, seed, sch, tcfg, path)
}

// Summarize converts a Result into the exporter-facing RunSummary.
func Summarize(res Result) RunSummary { return experiments.TelemetrySummary(res) }

// Run simulates one workload under one secure-memory design.
func Run(cfg Config, workloadName, schemeName string) (Result, error) {
	return RunSeeded(cfg, workloadName, schemeName, 0)
}

// RunSeeded is Run with an explicit workload seed (0 keeps the
// benchmark's built-in seed).
func RunSeeded(cfg Config, workloadName, schemeName string, seed int64) (Result, error) {
	bench, err := workload.ByNameSeeded(workloadName, seed)
	if err != nil {
		return Result{}, err
	}
	sch, err := scheme.ByName(schemeName)
	if err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res := gpu.NewSystem(cfg, sch.Options).Run(bench)
	res.Scheme = sch.Name
	return res, nil
}

// EffectiveSeed resolves the seed a run with the given workload and seed
// argument will actually use (the benchmark's built-in seed when seed is
// 0), so callers can record it in the run manifest.
func EffectiveSeed(workloadName string, seed int64) (int64, error) {
	bench, err := workload.ByNameSeeded(workloadName, seed)
	if err != nil {
		return 0, err
	}
	return bench.Seed(), nil
}

// Runner caches simulation results across figure generators; it is the
// engine behind cmd/paperbench and the benchmark harness.
type Runner = experiments.Runner

// NewRunner builds a Runner over cfg and the given workload subset
// (nil = the 15 memory-intensive workloads).
func NewRunner(cfg Config, workloads []string) *Runner {
	return experiments.NewRunner(cfg, workloads)
}

// Table is an aligned text table produced by the figure generators.
type Table = report.Table

// Figure regenerates one of the paper's figures/tables by identifier:
// "5", "10", "11", "12", "13", "14", "15", "16", "vii", "ix", "summary",
// "oversub" (the heterogeneous-memory oversubscription sweep).
func Figure(r *Runner, id string) (*Table, error) {
	switch id {
	case "oversub":
		return r.FigOversub(), nil
	case "5":
		return r.Fig5(), nil
	case "10":
		return r.Fig10(), nil
	case "11":
		return r.Fig11(), nil
	case "12":
		return r.Fig12(), nil
	case "13":
		return r.Fig13(), nil
	case "14":
		return r.Fig14(), nil
	case "15":
		return r.Fig15(), nil
	case "16":
		return r.Fig16(), nil
	case "vii":
		return r.TableVII(), nil
	case "ix":
		return experiments.TableIX(), nil
	case "summary":
		return r.Summary(), nil
	}
	return nil, fmt.Errorf("shmgpu: unknown figure %q", id)
}
