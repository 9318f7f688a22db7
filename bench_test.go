package shmgpu

import (
	"testing"

	"shmgpu/internal/scheme"
)

// The simulator's wall-time and allocation benchmark is bench/ (`sh
// bench/run.sh`); `paperbench -quick -fig N` regenerates a single figure.
// These two benchmarks time one quick cell with and without event-horizon
// fast-forward, for go test -bench comparisons against an older commit.

// BenchmarkSingleRun measures the cost of one full workload simulation
// (the unit every figure sweep is built from).
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
