package shmgpu_test

import (
	"fmt"
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
	"shmgpu/internal/hostmem"
)

// oversubQuickConfig returns the quick configuration with the UVM host
// tier enabled at the given oversubscription ratio, on the 64 KiB pages
// and the 16 B/cycle migration link the oversubscription figure runs.
// At ratio 0.5 the quick cycle cap truncates a cell after a few dozen
// faults; tests that need a run to drain raise MaxCycles to
// oversubDrainCycles.
func oversubQuickConfig(ratio float64) shmgpu.Config {
	cfg := shmgpu.QuickConfig()
	cfg.HostTier = true
	cfg.OversubRatio = ratio
	return cfg
}

// oversubDrainCycles is a cycle budget atax/SHM at ratio 0.5 completes in
// under every prefetch policy (demand-only takes about 1.4 M cycles).
const oversubDrainCycles = 2_000_000

// counter looks a key up in the run's stats registry; ok reports whether
// the key exists at all (the UVM layer only registers nonzero counters,
// so absence is itself an assertion target).
func counter(res shmgpu.Result, name string) (uint64, bool) {
	for _, c := range res.Reg.Snapshot() {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// TestHostTierFitByteIdentical is the migration-equivalence gate the
// fuzz oracle generalizes: with the host tier enabled at an
// oversubscription ratio ≥ 1.0 the working set fits in device frames,
// no access ever faults, and the run must be byte-identical — Result,
// stats registry, telemetry JSONL — to the same cell with the tier
// disabled.
func TestHostTierFitByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	cells := []corpusCell{
		{"atax", "SHM", 1},
		{"bfs", "Baseline", 2},
	}
	// One harness: both ratios of a cell share its tier-off run.
	h := experiments.NewHarness(corpusTool)
	for _, c := range cells {
		for _, ratio := range []float64{1.0, 1.5} {
			t.Run(fmt.Sprintf("%s_%s_ratio%.1f", c.workload, c.scheme, ratio), func(t *testing.T) {
				checkRow(t, h, experiments.MigrationEquivalence, cellSpec(t, oversubQuickConfig(ratio), c.workload, c.scheme, c.seed))
			})
		}
	}
}

// TestOversubscribedAccounting pins the tier's bookkeeping on a real
// oversubscribed run: every fault eventually completes (the run drains),
// migrated bytes match the page size, eviction happens (the frame budget
// is half the working set), and the faulting path charges replays for
// the cycles the paused access spends retrying.
func TestOversubscribedAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	cfg := oversubQuickConfig(0.5)
	// The quick deadline truncates atax/SHM mid-run; give the cell room
	// to finish so drain invariants (every fault completed) are checkable.
	cfg.MaxCycles = oversubDrainCycles
	res := result(t, cfg, "atax", "SHM", 1)
	if !res.Completed {
		t.Fatalf("oversubscribed quick cell did not complete in %d cycles", res.Cycles)
	}
	faults, ok := counter(res, "uvm_faults")
	if !ok || faults == 0 {
		t.Fatalf("uvm_faults = %d (present=%v); oversubscribed run must fault", faults, ok)
	}
	migrations, _ := counter(res, "uvm_migrations_in")
	if migrations != faults {
		t.Errorf("uvm_migrations_in = %d, want %d (every fault must complete by drain)", migrations, faults)
	}
	bytesIn, _ := counter(res, "uvm_bytes_in")
	if want := faults * (64 << 10); bytesIn != want {
		t.Errorf("uvm_bytes_in = %d, want faults×64KiB = %d", bytesIn, want)
	}
	if evictions, _ := counter(res, "uvm_evictions"); evictions == 0 {
		t.Error("uvm_evictions = 0; a 0.5-ratio run must evict")
	}
	if replays, _ := counter(res, "uvm_replays"); replays < faults {
		t.Errorf("uvm_replays = %d < faults = %d; each paused access retries at least once", replays, faults)
	}
}

// TestFaultInRebuildsMetadata pins how security metadata crosses the
// migration boundary. Only device memory is trusted, so every fault-in
// overwrites the page's regions device-side with fresh counters: the RO
// predictor sees the migration (uvm_ro_transitions registered when
// predicted-read-only regions get rewritten). On a demand-only tier each
// fault is one single-page migration, so the metadata charge is exactly
// one rebuild per fault. Baseline has no metadata: it faults on the same
// cell but pays no rebuild.
func TestFaultInRebuildsMetadata(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	cfg := oversubQuickConfig(0.5)
	cfg.MaxCycles = oversubDrainCycles
	res := result(t, cfg, "atax", "SHM", 1)
	faults, _ := counter(res, "uvm_faults")
	if faults == 0 {
		t.Fatal("no faults; the rebuild check needs migrations")
	}
	if tr, ok := counter(res, "uvm_ro_transitions"); !ok || tr == 0 {
		t.Errorf("uvm_ro_transitions = %d (present=%v); fault-ins over atax's read-only matrix must flip predicted-RO regions", tr, ok)
	}
	if meta, _ := counter(res, "uvm_meta_cycles"); meta != hostmem.DefaultRebuildCycles*faults {
		t.Errorf("uvm_meta_cycles = %d, want DefaultRebuildCycles × uvm_faults = %d × %d", meta, hostmem.DefaultRebuildCycles, faults)
	}
	base := result(t, cfg, "atax", "Baseline", 1)
	if faults, _ := counter(base, "uvm_faults"); faults == 0 {
		t.Fatal("Baseline took no faults; the no-rebuild check needs migrations")
	}
	if meta, ok := counter(base, "uvm_meta_cycles"); ok {
		t.Errorf("Baseline uvm_meta_cycles = %d; a design without metadata rebuilds none", meta)
	}
}

// TestNoPhantomAccesses pins the pause-and-replay protocol's key
// invariant: a faulted access is held at the head of its SM's miss queue
// and replayed — it is never duplicated, dropped, or issued to the cache
// hierarchy while non-resident. Both runs complete, so the instruction
// count (fixed per program) must match exactly; only timing may differ.
// (That replay stalls also do not split detector epoch windows is pinned
// byte-for-byte by TestFastForwardMatchesEveryCycleOversubscribed: the
// sampled timeline and MAT/epoch counters are identical whether the
// migration wait is fast-forwarded or ticked through.)
func TestNoPhantomAccesses(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	overCfg := oversubQuickConfig(0.5)
	overCfg.MaxCycles = oversubDrainCycles
	over := result(t, overCfg, "atax", "SHM", 1)
	offCfg := shmgpu.QuickConfig()
	offCfg.MaxCycles = oversubDrainCycles
	off := result(t, offCfg, "atax", "SHM", 1)
	if !over.Completed || !off.Completed {
		t.Fatalf("both runs must complete (oversub=%v off=%v)", over.Completed, off.Completed)
	}
	if over.Instructions != off.Instructions {
		t.Errorf("instructions diverge: oversubscribed=%d tier-off=%d; replays must not duplicate or drop accesses", over.Instructions, off.Instructions)
	}
	if over.Cycles <= off.Cycles {
		t.Errorf("oversubscribed run took %d cycles vs %d tier-off; migration stalls must cost time", over.Cycles, off.Cycles)
	}
}

// TestPrefetchFitByteIdentical extends the migration-equivalence gate to
// every migration-ahead configuration: at ratio ≥ 1.0 no access faults,
// so no fault streams ever form and no prefetch is ever issued — every
// policy must stay byte-identical to the tier-off run. This is
// the "prefetcher provably idle at fit" anchor the fuzz
// prefetch-equivalence oracle generalizes.
func TestPrefetchFitByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	// Each policy is a base at fit for the migration row; one harness
	// runs their common tier-off side once.
	h := experiments.NewHarness(corpusTool)
	for _, policy := range []string{"stride", "stream"} {
		t.Run(policy, func(t *testing.T) {
			cfg := oversubQuickConfig(1.0)
			cfg.UVMPrefetch = policy
			checkRow(t, h, experiments.MigrationEquivalence, cellSpec(t, cfg, "atax", "SHM", 1))
		})
	}
}

// TestPrefetchClosesCliff is the efficacy gate for the migration-ahead
// engine: on a streaming workload at ratio 0.5, stream-aware prefetching
// must issue prefetches, coalesce batches, and convert demand faults into
// ahead-of-access arrivals — strictly fewer faults and strictly higher
// IPC than the demand-only tier. Stride prefetching must do the same
// without the classifier.
func TestPrefetchClosesCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	base := oversubQuickConfig(0.5)
	base.MaxCycles = oversubDrainCycles
	demand := result(t, base, "atax", "SHM", 1)
	demandFaults, _ := counter(demand, "uvm_faults")
	if demandFaults == 0 {
		t.Fatal("demand-only reference did not fault; cliff test needs an oversubscribed cell")
	}
	for _, policy := range []string{"stride", "stream"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			cfg := base
			cfg.UVMPrefetch = policy
			res := result(t, cfg, "atax", "SHM", 1)
			if !res.Completed {
				t.Fatalf("prefetch run did not complete in %d cycles", res.Cycles)
			}
			prefetches, _ := counter(res, "uvm_prefetches")
			if prefetches == 0 {
				t.Fatal("uvm_prefetches = 0; the streaming workload must trigger the prefetcher")
			}
			batches, _ := counter(res, "uvm_batches")
			if batches == 0 {
				t.Error("uvm_batches = 0; sequential prefetches must coalesce into multi-page transfers")
			}
			useful, _ := counter(res, "uvm_pref_useful")
			if useful == 0 {
				t.Error("uvm_pref_useful = 0; prefetched pages must be touched before eviction")
			}
			faults, _ := counter(res, "uvm_faults")
			if faults >= demandFaults {
				t.Errorf("uvm_faults = %d, want < demand-only %d", faults, demandFaults)
			}
			if res.IPC() <= demand.IPC() {
				t.Errorf("IPC = %.4f, want > demand-only %.4f", res.IPC(), demand.IPC())
			}
		})
	}
}
