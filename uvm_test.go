package shmgpu_test

import (
	"fmt"
	"testing"

	"shmgpu"
	"shmgpu/internal/testutil"
)

// oversubQuickConfig returns the quick configuration with the UVM host
// tier enabled at the given oversubscription ratio. Pages stay at the
// 64 KiB default; the migration link is widened to 256 B/cycle so
// oversubscribed quick cells (which must demand-migrate the overflow
// fraction of a multi-MB working set, serially) finish inside the
// quick-config cycle budget.
func oversubQuickConfig(ratio float64) shmgpu.Config {
	cfg := shmgpu.QuickConfig()
	cfg.HostTier = true
	cfg.OversubRatio = ratio
	cfg.UVMPCIeBytesPerCycle = 256
	return cfg
}

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
	cells := []struct {
		workload string
		scheme   string
		seed     int64
	}{
		{"atax", "SHM", 1},
		{"bfs", "Baseline", 2},
	}
	for _, c := range cells {
		for _, ratio := range []float64{1.0, 1.5} {
			c, ratio := c, ratio
			t.Run(fmt.Sprintf("%s_%s_ratio%.1f", c.workload, c.scheme, ratio), func(t *testing.T) {
				on := testutil.RunCellCfg(t, oversubQuickConfig(ratio), c.workload, c.scheme, c.seed)
				off := testutil.RunCell(t, c.workload, c.scheme, c.seed, false)
				testutil.AssertEqual(t, "host-tier(fit)", on, "host-tier-off", off)
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
	cfg.MaxCycles = 1_000_000
	res, err := shmgpu.RunSeeded(cfg, "atax", "SHM", 1)
	if err != nil {
		t.Fatal(err)
	}
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

// TestHostIntegrityModes pins the two metadata-migration modes
// (satellite: RO-predictor across the fault boundary). Under the default
// rebuild mode a fault-in overwrites the page's regions device-side, so
// the RO predictor sees the migration (uvm_ro_transitions registered when
// predicted-read-only regions get rewritten). Under host-side integrity
// the fault-in only re-keys: the detectors must see nothing
// (uvm_ro_transitions absent) and the per-fault metadata charge is the
// cheap re-key cost.
func TestHostIntegrityModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	rebuildCfg := oversubQuickConfig(0.5)
	rebuild, err := shmgpu.RunSeeded(rebuildCfg, "atax", "SHM", 1)
	if err != nil {
		t.Fatal(err)
	}
	hostCfg := oversubQuickConfig(0.5)
	hostCfg.UVMHostIntegrity = "hostside"
	hostside, err := shmgpu.RunSeeded(hostCfg, "atax", "SHM", 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range []struct {
		name string
		res  shmgpu.Result
	}{{"rebuild", rebuild}, {"hostside", hostside}} {
		if f, _ := counter(r.res, "uvm_faults"); f == 0 {
			t.Fatalf("%s: no faults; the mode comparison needs migrations", r.name)
		}
	}
	if tr, ok := counter(rebuild, "uvm_ro_transitions"); !ok || tr == 0 {
		t.Errorf("rebuild mode: uvm_ro_transitions = %d (present=%v); fault-ins over atax's read-only matrix must flip predicted-RO regions", tr, ok)
	}
	if tr, ok := counter(hostside, "uvm_ro_transitions"); ok {
		t.Errorf("hostside mode: uvm_ro_transitions = %d registered; host-side integrity must not perturb the detectors", tr)
	}
	rbMeta, _ := counter(rebuild, "uvm_meta_cycles")
	hsMeta, _ := counter(hostside, "uvm_meta_cycles")
	if rbMeta == 0 || hsMeta == 0 || hsMeta >= rbMeta {
		t.Errorf("uvm_meta_cycles rebuild=%d hostside=%d; re-key must be strictly cheaper than rebuild", rbMeta, hsMeta)
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
	overCfg.MaxCycles = 1_000_000
	over, err := shmgpu.RunSeeded(overCfg, "atax", "SHM", 1)
	if err != nil {
		t.Fatal(err)
	}
	offCfg := shmgpu.QuickConfig()
	offCfg.MaxCycles = 1_000_000
	off, err := shmgpu.RunSeeded(offCfg, "atax", "SHM", 1)
	if err != nil {
		t.Fatal(err)
	}
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
// so no fault streams ever form, no prefetch is ever issued, and batching
// and large-page granularity have nothing to transfer — every policy and
// knob combination must stay byte-identical to the tier-off run. This is
// the "prefetcher provably idle at fit" anchor the fuzz
// prefetch-equivalence oracle generalizes.
func TestPrefetchFitByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	variants := []struct {
		name string
		mut  func(*shmgpu.Config)
	}{
		{"stride", func(c *shmgpu.Config) { c.UVMPrefetch = "stride" }},
		{"stream", func(c *shmgpu.Config) { c.UVMPrefetch = "stream" }},
		{"stride_batch4", func(c *shmgpu.Config) { c.UVMPrefetch = "stride"; c.UVMBatchPages = 4 }},
		{"stream_largepage", func(c *shmgpu.Config) { c.UVMPrefetch = "stream"; c.UVMLargePages = true }},
	}
	off := testutil.RunCell(t, "atax", "SHM", 1, false)
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := oversubQuickConfig(1.0)
			v.mut(&cfg)
			on := testutil.RunCellCfg(t, cfg, "atax", "SHM", 1)
			testutil.AssertEqual(t, "prefetch(fit)", on, "host-tier-off", off)
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
	base.MaxCycles = 1_000_000
	demand, err := shmgpu.RunSeeded(base, "atax", "SHM", 1)
	if err != nil {
		t.Fatal(err)
	}
	demandFaults, _ := counter(demand, "uvm_faults")
	if demandFaults == 0 {
		t.Fatal("demand-only reference did not fault; cliff test needs an oversubscribed cell")
	}
	for _, policy := range []string{"stride", "stream"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			cfg := base
			cfg.UVMPrefetch = policy
			res, err := shmgpu.RunSeeded(cfg, "atax", "SHM", 1)
			if err != nil {
				t.Fatal(err)
			}
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
