package shmgpu_test

import (
	"path/filepath"
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
	"shmgpu/internal/snapshot"
)

// checkFork checks the fork row on spec, forked at its scratch run's
// cycle count divided by depth, and fails the test if nothing was forked.
func checkFork(t *testing.T, h *experiments.Harness, spec shmgpu.RunSpec, depth uint64) {
	t.Helper()
	forks := h.Forks
	checkRow(t, h, experiments.ForkAt(depth), spec)
	if h.Forks == forks {
		t.Fatalf("workload finished before 1/%d of its cycles; nothing to fork", depth)
	}
}

// TestForkMatchesScratch is the checkpoint/fork equivalence gate: over a
// corpus of cells, a run forked from a warmed parent's snapshot
// must be byte-indistinguishable from the same configuration run from
// scratch — identical Result fields, stats-registry snapshot, and
// telemetry JSONL — for every child variant, with the fork point both
// early (a warmup boundary) and deep in steady state. Any simulator state
// the snapshot fails to capture, or captures approximately, lands here.
func TestForkMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	cells := []corpusCell{
		{"atax", "Baseline", 1},
		{"atax", "SHM", 1},
		{"bfs", "SHM", 2},
		{"fdtd2d", "SHM_readOnly", 3},
		{"mvt", "Common_ctr", 4},
	}
	for _, c := range cells {
		// One harness per cell: both fork depths share its scratch runs,
		// whose deterministic cycle counts place the fork points.
		h, spec := experiments.NewHarness(corpusTool), cellSpec(t, shmgpu.QuickConfig(), c.workload, c.scheme, c.seed)
		t.Run(c.String()+"_warmup", func(t *testing.T) { checkFork(t, h, spec, 8) })
		t.Run(c.String()+"_steady", func(t *testing.T) { checkFork(t, h, spec, 2) })
	}
}

// TestForkMatchesScratchOversubscribed pins the snapshot engine against
// the UVM host tier: forking a warmed oversubscribed parent — including
// at an early point where the migration ring is typically mid-transfer —
// must reproduce the scratch run byte-for-byte. (Deterministic coverage
// of serializing a non-empty migration ring lives in the hostmem unit
// tests; here the fork points sample whatever in-flight state the real
// run has at those cycles.) The stream-prefetch variant forks with
// migration-ahead state live — fault-stream stride tables, prefetch
// page states, eager-eviction stamps, and possibly a multi-page batch
// mid-transfer — all of which must survive the snapshot round-trip.
func TestForkMatchesScratchOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	for _, prefetch := range []string{"", "stream"} {
		name := "demand"
		if prefetch != "" {
			name = prefetch
		}
		t.Run(name, func(t *testing.T) {
			cfg := oversubQuickConfig(0.5)
			cfg.UVMPrefetch = prefetch
			h, spec := experiments.NewHarness(corpusTool), cellSpec(t, cfg, "atax", "SHM", 1)
			t.Run("early", func(t *testing.T) { checkFork(t, h, spec, 16) })
			t.Run("steady", func(t *testing.T) { checkFork(t, h, spec, 2) })
		})
	}
}

// snapshotFile warms spec to cycle at and round-trips the captured state
// through a snapshot file (checksummed, atomically renamed), returning the
// bytes read back.
func snapshotFile(t *testing.T, spec shmgpu.RunSpec, at uint64) []byte {
	t.Helper()
	warm := spec
	warm.StopAt = at
	out := execute(t, warm)
	if out.Snapshot == nil {
		t.Fatalf("workload finished before cycle %d; nothing captured", at)
	}
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := snapshot.WriteFile(path, out.Snapshot); err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// assertRestoreRejected requires restoring blob under spec to fail the
// configuration fingerprint rather than silently diverge.
func assertRestoreRejected(t *testing.T, what string, spec shmgpu.RunSpec, blob []byte) {
	t.Helper()
	spec.Restore = blob
	if _, err := shmgpu.Execute(spec); err == nil {
		t.Errorf("restoring under a different %s succeeded; want fingerprint rejection", what)
	}
}

// assertRestoresToScratch requires blob restored under spec to complete
// byte-identically to spec run from scratch.
func assertRestoresToScratch(t *testing.T, spec shmgpu.RunSpec, blob []byte) {
	t.Helper()
	child := spec
	child.Restore = blob
	h := experiments.NewHarness(corpusTool)
	restored, scratch := h.Run(child), h.Run(spec)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	for _, d := range experiments.DiffArtifacts("restore", "restored", restored.Artifacts, "scratch", scratch.Artifacts) {
		t.Error(d)
	}
}

// TestSnapshotFileRoundTrip pins the file-based warm/restore path shmsim
// exposes: a snapshot written to disk restores into a byte-identical
// completion, and restoring under a mismatched scheme, seed or GPU config
// is rejected by the configuration fingerprint rather than silently
// diverging.
func TestSnapshotFileRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	cfg := shmgpu.QuickConfig()
	probe := result(t, cfg, "atax", "SHM", 1)
	spec := cellSpec(t, cfg, "atax", "SHM", 1)
	blob := snapshotFile(t, spec, probe.Cycles/2)
	assertRestoresToScratch(t, spec, blob)

	assertRestoreRejected(t, "scheme", cellSpec(t, cfg, "atax", "PSSM", 1), blob)
	assertRestoreRejected(t, "seed", cellSpec(t, cfg, "atax", "SHM", 99), blob)
	bigger := cfg
	bigger.SMs++
	assertRestoreRejected(t, "GPU config", cellSpec(t, bigger, "atax", "SHM", 1), blob)
}

// TestSnapshotRejectsPageSizeMismatch extends the fingerprint gate to the
// UVM axis: a snapshot taken under one page size (or oversubscription
// ratio) must not restore under another — residency bitmaps and the
// migration ring are meaningless across page geometries.
func TestSnapshotRejectsPageSizeMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	cfg := oversubQuickConfig(0.5)
	probe := result(t, cfg, "atax", "SHM", 1)
	spec := cellSpec(t, cfg, "atax", "SHM", 1)
	blob := snapshotFile(t, spec, probe.Cycles/2)

	smaller := cfg
	smaller.UVMPageBytes = 32 << 10
	assertRestoreRejected(t, "page size", cellSpec(t, smaller, "atax", "SHM", 1), blob)
	tighter := cfg
	tighter.OversubRatio = 0.25
	assertRestoreRejected(t, "oversubscription ratio", cellSpec(t, tighter, "atax", "SHM", 1), blob)

	// Sanity: the matching configuration still restores and completes
	// byte-identically to scratch.
	assertRestoresToScratch(t, spec, blob)
}
