package shmgpu_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/testutil"
)

// forkChildren warms spec to cycle at, captures its state once, and
// restores one child per fast-forward mode from the snapshot — a fork is
// a StopAt spec plus Restore specs. It returns the children's artifacts,
// fast-forward first, and the configs they ran under.
func forkChildren(t *testing.T, spec shmgpu.RunSpec, at uint64) ([]experiments.Artifacts, []shmgpu.Config) {
	t.Helper()
	warm := spec
	warm.StopAt = at
	parent := testutil.Execute(t, warm)
	if parent.Snapshot == nil {
		t.Fatalf("workload finished before cycle %d; nothing to fork", at)
	}
	var arts []experiments.Artifacts
	var cfgs []shmgpu.Config
	for _, disableFF := range []bool{false, true} {
		child := spec
		child.Config.DisableFastForward = disableFF
		child.Restore = parent.Snapshot
		arts = append(arts, testutil.Render(t, child, testutil.Execute(t, child)))
		cfgs = append(cfgs, child.Config)
	}
	return arts, cfgs
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
	cells := []struct {
		workload string
		scheme   string
		seed     int64
	}{
		{"atax", "Baseline", 1},
		{"atax", "SHM", 1},
		{"bfs", "SHM", 2},
		{"fdtd2d", "SHM_readOnly", 3},
		{"mvt", "Common_ctr", 4},
	}
	for _, c := range cells {
		c := c
		// One probe run sizes the fork points; its cycle count is
		// deterministic, so the fractions below land at reproducible spots.
		probe := testutil.RunResult(t, shmgpu.QuickConfig(), c.workload, c.scheme, c.seed)
		warmPoints := []struct {
			name string
			at   uint64
		}{
			{"warmup", probe.Cycles / 8},
			{"steady", probe.Cycles / 2},
		}
		for _, wp := range warmPoints {
			wp := wp
			if wp.at == 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s_%s_seed%d_%s", c.workload, c.scheme, c.seed, wp.name), func(t *testing.T) {
				spec := testutil.Spec(t, shmgpu.QuickConfig(), c.workload, c.scheme, c.seed)
				forked, cfgs := forkChildren(t, spec, wp.at)
				for i, cfg := range cfgs {
					scratch := testutil.RunCell(t, c.workload, c.scheme, c.seed, cfg.DisableFastForward)
					label := fmt.Sprintf("forked ff=%v", !cfg.DisableFastForward)
					testutil.AssertEqual(t, label, forked[i], "scratch", scratch)
				}
			})
		}
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
		prefetch := prefetch
		name := "demand"
		if prefetch != "" {
			name = prefetch
		}
		t.Run(name, func(t *testing.T) {
			cfg := oversubQuickConfig(0.5)
			cfg.UVMPrefetch = prefetch
			probe := testutil.RunResult(t, cfg, "atax", "SHM", 1)
			for _, frac := range []struct {
				name string
				at   uint64
			}{
				{"early", probe.Cycles / 16},
				{"steady", probe.Cycles / 2},
			} {
				frac := frac
				if frac.at == 0 {
					continue
				}
				t.Run(frac.name, func(t *testing.T) {
					forked, cfgs := forkChildren(t, testutil.Spec(t, cfg, "atax", "SHM", 1), frac.at)
					for i, scfg := range cfgs {
						scratch := testutil.RunCellCfg(t, scfg, "atax", "SHM", 1)
						label := fmt.Sprintf("forked ff=%v", !scfg.DisableFastForward)
						testutil.AssertEqual(t, label, forked[i], "scratch", scratch)
					}
				})
			}
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
	out := testutil.Execute(t, warm)
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
	restored := testutil.Render(t, child, testutil.Execute(t, child))
	scratch := testutil.Render(t, spec, testutil.Execute(t, spec))
	testutil.AssertEqual(t, "restored", restored, "scratch", scratch)
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
	probe := testutil.RunResult(t, cfg, "atax", "SHM", 1)
	spec := testutil.Spec(t, cfg, "atax", "SHM", 1)
	blob := snapshotFile(t, spec, probe.Cycles/2)
	assertRestoresToScratch(t, spec, blob)

	assertRestoreRejected(t, "scheme", testutil.Spec(t, cfg, "atax", "PSSM", 1), blob)
	assertRestoreRejected(t, "seed", testutil.Spec(t, cfg, "atax", "SHM", 99), blob)
	bigger := cfg
	bigger.SMs++
	assertRestoreRejected(t, "GPU config", testutil.Spec(t, bigger, "atax", "SHM", 1), blob)
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
	probe := testutil.RunResult(t, cfg, "atax", "SHM", 1)
	spec := testutil.Spec(t, cfg, "atax", "SHM", 1)
	blob := snapshotFile(t, spec, probe.Cycles/2)

	smaller := cfg
	smaller.UVMPageBytes = 32 << 10
	assertRestoreRejected(t, "page size", testutil.Spec(t, smaller, "atax", "SHM", 1), blob)
	tighter := cfg
	tighter.OversubRatio = 0.25
	assertRestoreRejected(t, "oversubscription ratio", testutil.Spec(t, tighter, "atax", "SHM", 1), blob)

	// Sanity: the matching configuration still restores and completes
	// byte-identically to scratch.
	assertRestoresToScratch(t, spec, blob)
}
