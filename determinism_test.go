package shmgpu_test

import (
	"bytes"
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
	"shmgpu/internal/testutil"
)

// runOnce executes atax/SHM at seed and renders everything it exports
// that must be reproducible: the Result fields, the marshaled
// stats.Registry snapshot and the full JSONL trace stream (under a fixed
// manifest with no wall-clock fields, so the comparison tests the
// simulation stream, not the timestamps around it).
func runOnce(t *testing.T, seed int64) (experiments.Artifacts, shmgpu.Result) {
	t.Helper()
	spec := testutil.Spec(t, shmgpu.QuickConfig(), "atax", "SHM", seed)
	spec.Telemetry = &shmgpu.TelemetryConfig{SampleInterval: 1000, CaptureEvents: true}
	out := testutil.Execute(t, spec)
	arts, err := experiments.Render("determinism-test", spec, out)
	if err != nil {
		t.Fatal(err)
	}
	return arts, out.Result
}

// TestRunsAreByteIdentical is the determinism regression gate: two
// back-to-back runs of the same (workload, scheme, seed) must produce
// byte-identical registry snapshots and byte-identical JSONL export
// streams. Any nondeterminism source that slips past the static checks
// (shmlint's nodeterminism analyzer) lands here.
func TestRunsAreByteIdentical(t *testing.T) {
	first, _ := runOnce(t, 424242)
	second, _ := runOnce(t, 424242)
	testutil.AssertEqual(t, "first", first, "second", second)
}

// TestSeedChangesTheRun asserts the seed actually threads through to the
// warp programs: two different seeds must not produce the same simulation.
func TestSeedChangesTheRun(t *testing.T) {
	a, aRes := runOnce(t, 7)
	b, bRes := runOnce(t, 8)
	if aRes.Cycles == bRes.Cycles && bytes.Equal(a.Counters, b.Counters) {
		t.Errorf("seed 7 and seed 8 produced identical runs (%d cycles, same counters); seed is not reaching the workload",
			aRes.Cycles)
	}
}
