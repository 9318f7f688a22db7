package shmgpu_test

import (
	"fmt"
	"strings"
	"testing"

	"shmgpu"
	"shmgpu/internal/gpu"
	"shmgpu/internal/scheme"
	"shmgpu/internal/testutil"
	"shmgpu/internal/workload"
)

// runMode executes one (workload, scheme, seed) cell with fast-forward either
// enabled (the default) or disabled (reference every-cycle ticking).
func runMode(t *testing.T, workload, scheme string, seed int64, disableFF bool) testutil.Artifacts {
	t.Helper()
	return testutil.RunCell(t, workload, scheme, seed, disableFF)
}

// TestFastForwardMatchesEveryCycle is the event-horizon equivalence gate:
// over a corpus of (workload, scheme, seed) cells, a run with event-horizon
// cycle skipping must be indistinguishable from the every-cycle reference —
// identical Result fields, an identical stats-registry snapshot, and a
// byte-identical telemetry JSONL stream (events, histograms, and the sampled
// timeline included). Any component whose nextEvent under-reports (ticking
// earlier would have had an effect) or whose skipped ticks are not no-ops
// lands here.
func TestFastForwardMatchesEveryCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	cells := []struct {
		workload string
		scheme   string
		seed     int64
	}{
		// Schemes chosen to cover every mechanism the horizon must model:
		// no MEE at all, full metadata traffic, sectored+local metadata,
		// RO-counter transitions, dual-granularity MACs with MAT trackers,
		// and the combined SHM design.
		{"atax", "Baseline", 1},
		{"atax", "Naive", 1},
		{"atax", "PSSM", 1},
		{"atax", "SHM", 1},
		{"bfs", "SHM", 2},
		{"fdtd2d", "SHM_readOnly", 3},
		{"mvt", "Common_ctr", 4},
		{"streamcluster", "SHM", 5},
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s_%s_seed%d", c.workload, c.scheme, c.seed), func(t *testing.T) {
			ff := runMode(t, c.workload, c.scheme, c.seed, false)
			ref := runMode(t, c.workload, c.scheme, c.seed, true)
			testutil.AssertEqual(t, "fast-forward", ff, "every-cycle", ref)
		})
	}
}

// oversubFullConfig is the quick configuration behind the host tier at
// the default 16 B/cycle migration link, with a cycle budget every such
// cell finishes in: the shape of the benchmark's oversub cells, where
// most simulated cycles are spent waiting for page migrations.
func oversubFullConfig(ratio float64, prefetch string) shmgpu.Config {
	cfg := shmgpu.QuickConfig()
	cfg.HostTier = true
	cfg.OversubRatio = ratio
	cfg.UVMPrefetch = prefetch
	cfg.MaxCycles = 10_000_000
	return cfg
}

// TestFastForwardMatchesEveryCycleOversubscribed extends the horizon gate
// to the UVM host tier: with the working set oversubscribed, in-flight
// page migrations join the event horizon (hostmem.Tier.NextEvent) and the
// fault/replay retries must land on identical cycles in both modes. The
// prefetch cells additionally pin migration-ahead state — fault streams,
// batched transfers, eager evictions — against cycle skipping: a prefetch
// issued on a skipped-to cycle must land exactly where every-cycle
// ticking would put it. The full-length cells run to completion on the
// default link, where fault waits dominate: they pin the skipping of
// blocked miss-queue heads (replays charged in bulk, so uvm_replays
// matches) and of pacing bubbles (warp back-offs replayed) over millions
// of skipped cycles.
func TestFastForwardMatchesEveryCycleOversubscribed(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus of full simulations; skipped in -short")
	}
	withPrefetch := func(cfg shmgpu.Config, prefetch string) shmgpu.Config {
		cfg.UVMPrefetch = prefetch
		return cfg
	}
	cells := []struct {
		name     string
		workload string
		scheme   string
		cfg      shmgpu.Config
		full     bool
	}{
		{"Baseline", "atax", "Baseline", oversubQuickConfig(0.5), false},
		{"SHM", "atax", "SHM", oversubQuickConfig(0.5), false},
		{"SHM_stride", "atax", "SHM", withPrefetch(oversubQuickConfig(0.5), "stride"), false},
		{"SHM_stream", "atax", "SHM", withPrefetch(oversubQuickConfig(0.5), "stream"), false},
		{"full_atax_r0.75_stream", "atax", "SHM", oversubFullConfig(0.75, "stream"), true},
		{"full_atax_r0.25_none", "atax", "SHM", oversubFullConfig(0.25, "none"), true},
		{"full_lbm_r0.5_stride", "lbm", "SHM", oversubFullConfig(0.5, "stride"), true},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			ff := testutil.RunCellCfg(t, cfg, c.workload, c.scheme, 1)
			cfg.DisableFastForward = true
			ref := testutil.RunCellCfg(t, cfg, c.workload, c.scheme, 1)
			testutil.AssertEqual(t, "fast-forward", ff, "every-cycle", ref)
			if c.full && !strings.Contains(ff.Result, "completed=true") {
				t.Errorf("full-length cell did not complete: %s", ff.Result)
			}
		})
	}
}

// tickCounter counts the ticks a run executes: the simulator calls
// SyncTick exactly once per executed tick.
type tickCounter struct {
	*workload.Bench
	ticks uint64
}

func (t *tickCounter) SyncTick() {
	t.ticks++
	t.Bench.SyncTick()
}

// TestFastForwardSkipsFaultWaits gates the machine-independent work
// counter of the oversubscribed path: on a cell that spends most of its
// cycles waiting for page migrations, the event horizon must skip the
// wait instead of ticking through it. Executed ticks stay at most 40% of
// simulated cycles (every-cycle ticking executes one tick per cycle).
func TestFastForwardSkipsFaultWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation; skipped in -short")
	}
	b, err := workload.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	tc := &tickCounter{Bench: b}
	res := gpu.NewSystem(oversubFullConfig(0.75, "none"), scheme.SHM.Options).Run(tc)
	if !res.Completed {
		t.Fatalf("cell did not complete in %d cycles", res.Cycles)
	}
	t.Logf("executed %d ticks for %d cycles (%.1f%%)", tc.ticks, res.Cycles, 100*float64(tc.ticks)/float64(res.Cycles))
	if tc.ticks*10 > res.Cycles*4 {
		t.Errorf("executed %d ticks for %d cycles (%.1f%%), want at most 40%%",
			tc.ticks, res.Cycles, 100*float64(tc.ticks)/float64(res.Cycles))
	}
}
