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
//   - The timing simulator (this package's Execute over internal/gpu):
//     a cycle-level GPU memory-hierarchy model (SMs, sectored L1/L2 with
//     MSHRs, 12 GDDR partitions) with a Memory Encryption Engine per
//     partition, used to reproduce every figure of the paper's evaluation:
//     normalized IPC, bandwidth overheads, predictor accuracy, energy, and
//     the L2-victim-cache study.
//
// Quick start:
//
//	shm, _ := shmgpu.SchemeByName("SHM")
//	base, _ := shmgpu.SchemeByName("Baseline")
//	spec := shmgpu.RunSpec{Config: shmgpu.QuickConfig(), Workload: "fdtd2d", Scheme: shm}
//	out, _ := shmgpu.Execute(spec)
//	spec.Scheme = base
//	ref, _ := shmgpu.Execute(spec)
//	fmt.Printf("normalized IPC: %.3f\n", out.Result.IPC()/ref.Result.IPC())
//
// The cmd/paperbench binary regenerates all paper tables and figures;
// cmd/shmsim runs single simulations with detailed statistics; and
// cmd/attackdemo drives the functional library under physical attacks.
package shmgpu

import (
	"fmt"

	"shmgpu/internal/experiments"
	"shmgpu/internal/gpu"
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

// RunSpec describes one simulation: configuration, workload (a built-in
// name plus seed, or a generated spec), design, and optionally telemetry
// and a live-observability handle. See experiments.RunSpec for each field.
type RunSpec = experiments.RunSpec

// RunOutput is one executed RunSpec: the Result and the filled Collector
// when telemetry was requested.
type RunOutput = experiments.RunOutput

// Execute runs one RunSpec. It is the only way a simulation starts: it
// validates the configuration (an invalid one is an error, never a
// panic), builds a fresh workload and system, and runs it to completion.
// Runs of identical specs are bit-for-bit reproducible.
func Execute(spec RunSpec) (RunOutput, error) { return experiments.Execute(spec) }

// Scheme is one secure-memory design (paper Table VIII) or the insecure
// Baseline.
type Scheme = scheme.Scheme

// SchemeByName looks a design up by its name (see Schemes).
func SchemeByName(name string) (Scheme, error) { return scheme.ByName(name) }

// Summarize converts a Result into the exporter-facing RunSummary.
func Summarize(res Result) RunSummary { return experiments.TelemetrySummary(res) }

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
// "5", "10", "11", "12", "13", "14", "15", "16", "oversub" (the
// heterogeneous-memory oversubscription sweep), "vii", "ix", "summary",
// and the ablations "ablation-trackers", "ablation-lead",
// "ablation-timeout", "ablation-mdc". Its cells run on r's worker pool.
func Figure(r *Runner, id string) (*Table, error) {
	for _, f := range experiments.Figures {
		if f.ID == id {
			return f.Table(r), nil
		}
	}
	return nil, fmt.Errorf("shmgpu: unknown figure %q", id)
}
