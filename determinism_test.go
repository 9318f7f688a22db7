package shmgpu_test

import (
	"bytes"
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
)

// determinismSpec is atax/SHM at seed, rendered with everything it
// exports that must be reproducible: the Result fields, the marshaled
// stats.Registry snapshot and the full JSONL trace stream (under a fixed
// manifest with no wall-clock fields, so the comparison tests the
// simulation stream, not the timestamps around it).
func determinismSpec(t *testing.T, seed int64) shmgpu.RunSpec {
	t.Helper()
	spec := cellSpec(t, shmgpu.QuickConfig(), "atax", "SHM", seed)
	spec.Telemetry = &shmgpu.TelemetryConfig{SampleInterval: 1000, CaptureEvents: true}
	return spec
}

// TestRunsAreByteIdentical is the determinism regression gate: two
// back-to-back runs of the same (workload, scheme, seed) must produce
// byte-identical registry snapshots and byte-identical JSONL export
// streams. Any nondeterminism source that slips past the static checks
// (shmlint's nodeterminism analyzer) lands here.
func TestRunsAreByteIdentical(t *testing.T) {
	checkRow(t, experiments.NewHarness("determinism-test"), experiments.Determinism, determinismSpec(t, 424242))
}

// TestSeedChangesTheRun asserts the seed actually threads through to the
// warp programs: two different seeds must not produce the same simulation.
func TestSeedChangesTheRun(t *testing.T) {
	h := experiments.NewHarness("determinism-test")
	a, b := h.Run(determinismSpec(t, 7)), h.Run(determinismSpec(t, 8))
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if a.Result.Cycles == b.Result.Cycles && bytes.Equal(a.Counters, b.Counters) {
		t.Errorf("seed 7 and seed 8 produced identical runs (%d cycles, same counters); seed is not reaching the workload",
			a.Result.Cycles)
	}
}
