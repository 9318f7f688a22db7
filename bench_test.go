package shmgpu

import (
	"os"
	"strings"
	"sync"
	"testing"

	"shmgpu/internal/scheme"
)

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section. Each benchmark reports the wall time of producing its
// figure from a shared, cached run set, and logs the generated table so
// `go test -bench . -v` doubles as a report generator.
//
// By default the harness uses the scaled-down quick configuration over all
// memory-intensive workloads so the full suite finishes in minutes; run
// cmd/paperbench (without -quick) for the full-scale reproduction used in
// EXPERIMENTS.md.

var (
	benchOnce   sync.Once
	benchRunner *Runner
)

func harness() *Runner {
	benchOnce.Do(func() {
		// SHMGPU_BENCH_WORKLOADS selects a comma-separated subset for
		// constrained machines; default is the full memory-intensive set.
		var wls []string
		if env := os.Getenv("SHMGPU_BENCH_WORKLOADS"); env != "" {
			for _, w := range strings.Split(env, ",") {
				if w = strings.TrimSpace(w); w != "" {
					wls = append(wls, w)
				}
			}
		}
		benchRunner = NewRunner(QuickConfig(), wls)
	})
	return benchRunner
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	r := harness()
	for i := 0; i < b.N; i++ {
		tb, err := Figure(r, id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tb.String())
		}
	}
}

// BenchmarkFig05_AccessCharacterization regenerates Fig. 5: the streaming
// and read-only access ratios per workload.
func BenchmarkFig05_AccessCharacterization(b *testing.B) { benchFigure(b, "5") }

// BenchmarkFig10_ReadOnlyPrediction regenerates Fig. 10: the read-only
// predictor's accuracy breakdown (Correct / MP_Init / MP_Aliasing).
func BenchmarkFig10_ReadOnlyPrediction(b *testing.B) { benchFigure(b, "10") }

// BenchmarkFig11_StreamingPrediction regenerates Fig. 11: the streaming
// predictor's five-way accuracy breakdown.
func BenchmarkFig11_StreamingPrediction(b *testing.B) { benchFigure(b, "11") }

// BenchmarkFig12_OverallPerformance regenerates Fig. 12: normalized IPC of
// Naive, Common_ctr, PSSM, SHM and SHM_upper_bound.
func BenchmarkFig12_OverallPerformance(b *testing.B) { benchFigure(b, "12") }

// BenchmarkFig13_Breakdown regenerates Fig. 13: the effect of each
// optimization added one at a time.
func BenchmarkFig13_Breakdown(b *testing.B) { benchFigure(b, "13") }

// BenchmarkFig14_Bandwidth regenerates Fig. 14: security-metadata bandwidth
// overhead per design.
func BenchmarkFig14_Bandwidth(b *testing.B) { benchFigure(b, "14") }

// BenchmarkFig15_Energy regenerates Fig. 15: normalized energy per
// instruction.
func BenchmarkFig15_Energy(b *testing.B) { benchFigure(b, "15") }

// BenchmarkFig16_VictimCache regenerates Fig. 16: SHM with the L2 as a
// victim cache for security metadata.
func BenchmarkFig16_VictimCache(b *testing.B) { benchFigure(b, "16") }

// BenchmarkTableVII_BandwidthUtilization checks the baseline DRAM bandwidth
// utilization against the paper's per-benchmark bands.
func BenchmarkTableVII_BandwidthUtilization(b *testing.B) { benchFigure(b, "vii") }

// BenchmarkTableIX_HardwareOverhead reports the detector hardware cost
// (pure arithmetic; included for completeness of the per-table index).
func BenchmarkTableIX_HardwareOverhead(b *testing.B) { benchFigure(b, "ix") }

// BenchmarkSummary_Headline reproduces the paper's abstract numbers: the
// average performance overhead of each design.
func BenchmarkSummary_Headline(b *testing.B) { benchFigure(b, "summary") }

// BenchmarkFigOversub regenerates the heterogeneous-memory extension: the
// oversubscription sweep under the host-backed tier.
func BenchmarkFigOversub(b *testing.B) { benchFigure(b, "oversub") }

// BenchmarkSingleRun measures the cost of one full workload simulation
// (the unit everything above is built from).
func BenchmarkSingleRun(b *testing.B) {
	b.ReportAllocs()
	spec := RunSpec{Config: QuickConfig(), Workload: "atax", Scheme: scheme.SHM}
	for i := 0; i < b.N; i++ {
		if _, err := Execute(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRunEveryCycle is BenchmarkSingleRun with event-horizon
// cycle skipping disabled: the A/B pair quantifies how much the fast-forward
// path buys (the equivalence tests in fastforward_test.go prove it changes
// nothing else).
func BenchmarkSingleRunEveryCycle(b *testing.B) {
	b.ReportAllocs()
	spec := RunSpec{Config: QuickConfig(), Workload: "atax", Scheme: scheme.SHM}
	spec.Config.DisableFastForward = true
	for i := 0; i < b.N; i++ {
		if _, err := Execute(spec); err != nil {
			b.Fatal(err)
		}
	}
}
