package hostmem

import (
	"testing"

	"shmgpu/internal/snapshot"
)

// ptier builds a tier over pages pages with the same fast deterministic
// timing as tier(): 64 B pages, transfer 4 cycles, latency 10, metadata 6.
func ptier(t *testing.T, cfg Config, pages int) *Tier {
	t.Helper()
	if cfg.PageBytes == 0 {
		cfg.PageBytes = 64
	}
	if cfg.PCIeLatency == 0 {
		cfg.PCIeLatency = 10
	}
	if cfg.PCIeBytesPerCycle == 0 {
		cfg.PCIeBytesPerCycle = 16
	}
	if cfg.MetaCycles == 0 {
		cfg.MetaCycles = 6
	}
	if cfg.ThrashWindow == 0 {
		cfg.ThrashWindow = 100
	}
	tr, err := New(cfg, uint64(pages)*cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParsePrefetch(t *testing.T) {
	for s, want := range map[string]Prefetch{"": PrefetchNone, "none": PrefetchNone, "stride": PrefetchStride, "stream": PrefetchStream} {
		if p, err := ParsePrefetch(s); err != nil || p != want {
			t.Errorf("ParsePrefetch(%q) = %v, %v; want %v", s, p, err, want)
		}
	}
	if _, err := ParsePrefetch("oracle"); err == nil {
		t.Error("unknown prefetch policy accepted")
	}
	for p, want := range map[Prefetch]string{PrefetchNone: "none", PrefetchStride: "stride", PrefetchStream: "stream"} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
	if err := (Config{SubPageBytes: 48}).Validate(); err == nil {
		t.Error("non-power-of-two sub-page size accepted")
	}
	if err := (Config{PageBytes: 64, SubPageBytes: 128}).Validate(); err == nil {
		t.Error("sub-page larger than the page accepted")
	}
	if err := (Config{PageBytes: 64 << 10, SubPageBytes: 64}).Validate(); err == nil {
		t.Error("more than 64 sub-pages per page accepted")
	}
}

// TestStrideStreamFormation pins the confirmation protocol: the first
// fault of a sequence prefetches nothing, the second only primes the
// stride, and the third — two matching deltas — confirms the stream and
// extends the demand fault into one coalesced batch whose link latency
// and metadata cost are paid once.
func TestStrideStreamFormation(t *testing.T) {
	tr := ptier(t, Config{Frames: 4, Prefetch: PrefetchStride, PrefetchDegree: 4, BatchPages: 4}, 32)
	if tr.Access(8*64, false, 0) != Fault {
		t.Fatal("page 8 did not fault")
	}
	if st := tr.Stats(); st.Prefetches != 0 {
		t.Fatalf("Prefetches = %d after a first fault, want 0", st.Prefetches)
	}
	now := settle(t, tr, 0)
	if tr.Access(9*64, false, now) != Fault {
		t.Fatal("page 9 did not fault")
	}
	if st := tr.Stats(); st.Prefetches != 0 {
		t.Fatalf("Prefetches = %d after the priming fault, want 0", st.Prefetches)
	}
	now = settle(t, tr, now)
	if tr.Access(10*64, false, now) != Fault {
		t.Fatal("page 10 did not fault")
	}
	st := tr.Stats()
	// Batch = demand page 10 + prefetched 11, 12, 13 (degree 4, but the
	// batch is capped at BatchPages total pages).
	if st.Prefetches != 3 || st.Batches != 1 {
		t.Fatalf("Prefetches = %d, Batches = %d; want 3 prefetched pages in 1 batch", st.Prefetches, st.Batches)
	}
	// Batches complete incrementally: the leading demand page lands after
	// its own transfer slice plus latency and metadata (now + 4 + 10 + 6),
	// not after the whole 4-page transfer (the tail lands at now + 32).
	if ne := tr.NextEvent(now); ne != now+20 {
		t.Fatalf("NextEvent = %d, want %d (demand page leads the batch)", ne, now+20)
	}
	// Metadata re-establishment is charged per batch, not per page: three
	// migrations so far (two singles, one 4-page batch) = 3 × 6 cycles.
	if st.MetaCycles != 18 {
		t.Fatalf("MetaCycles = %d, want 18 (three batches)", st.MetaCycles)
	}
	now = settle(t, tr, now)
	if st := tr.Stats(); st.MigrationsIn != 6 {
		t.Fatalf("MigrationsIn = %d, want 6 (3 demand + 3 prefetched)", st.MigrationsIn)
	}
	for p := 11; p <= 13; p++ {
		if !tr.IsResident(p) {
			t.Fatalf("prefetched page %d not resident after settle", p)
		}
	}
	// Touching a prefetched page after arrival counts it useful, once.
	if tr.Access(11*64, false, now+1) != Admit {
		t.Fatal("prefetched page 11 did not admit")
	}
	if tr.Access(11*64, false, now+2) != Admit {
		t.Fatal("second touch of page 11 did not admit")
	}
	if st := tr.Stats(); st.PrefUseful != 1 {
		t.Fatalf("PrefUseful = %d, want 1", st.PrefUseful)
	}
}

// TestStrideStreamTeardown: eight unrelated faults LRU-replace the whole
// stride table, so a previously confirmed stream is forgotten and its
// continuation prefetches nothing until it re-confirms.
func TestStrideStreamTeardown(t *testing.T) {
	tr := ptier(t, Config{Frames: 64, Prefetch: PrefetchStride, PrefetchDegree: 2, BatchPages: 8}, 1024)
	now := uint64(0)
	fault := func(page int) {
		t.Helper()
		if tr.Access(uint64(page)*64, false, now) != Fault {
			t.Fatalf("page %d did not fault", page)
		}
		now = settle(t, tr, now)
	}
	fault(100)
	fault(101)
	fault(102) // confirmed: prefetches 103, 104
	if st := tr.Stats(); st.Prefetches != 2 {
		t.Fatalf("Prefetches = %d after confirmation, want 2", st.Prefetches)
	}
	// Far-apart faults (spacing > streamMaxStride) fill the seven empty
	// slots, then replace the stream's slot.
	for p := 200; p <= 900; p += 100 {
		fault(p)
	}
	for i := range tr.streams {
		if tr.streams[i].conf >= streamMinConfidence {
			t.Fatalf("stream slot %d still confirmed after table churn: %+v", i, tr.streams[i])
		}
	}
	// The old stream's continuation (first host page past the prefetched
	// run) no longer prefetches.
	fault(105)
	if st := tr.Stats(); st.Prefetches != 2 {
		t.Errorf("Prefetches = %d after teardown, want 2 (no new prefetch)", st.Prefetches)
	}
}

// TestPrefetchLateAccounting: a page demanded while its prefetch is still
// in flight counts late (not useful), stalls like any migrating page, and
// leaves the accuracy accounting for good.
func TestPrefetchLateAccounting(t *testing.T) {
	tr := ptier(t, Config{Frames: 4, Prefetch: PrefetchStride, PrefetchDegree: 4, BatchPages: 4}, 32)
	now := uint64(0)
	for _, p := range []int{8, 9} {
		if tr.Access(uint64(p)*64, false, now) != Fault {
			t.Fatalf("page %d did not fault", p)
		}
		now = settle(t, tr, now)
	}
	if tr.Access(10*64, false, now) != Fault {
		t.Fatal("page 10 did not fault")
	}
	// Page 11 is in the in-flight batch: demanding it now is a late
	// prefetch.
	if got := tr.Access(11*64, false, now+1); got != Stall {
		t.Fatalf("demand of in-flight prefetched page = %v, want Stall", got)
	}
	if st := tr.Stats(); st.PrefLate != 1 {
		t.Fatalf("PrefLate = %d, want 1", st.PrefLate)
	}
	now = settle(t, tr, now)
	if tr.Access(11*64, false, now) != Admit {
		t.Fatal("page 11 did not admit after arrival")
	}
	if st := tr.Stats(); st.PrefUseful != 0 || st.PrefLate != 1 {
		t.Errorf("accounting = useful %d late %d; a late prefetch must not also count useful", st.PrefUseful, st.PrefLate)
	}
}

// TestPrefetchUselessAccounting: a prefetched page evicted without ever
// being touched counts useless exactly once, and eager/prefetch marks are
// cleared so the frame's next tenant starts clean.
func TestPrefetchUselessAccounting(t *testing.T) {
	tr := ptier(t, Config{Frames: 4, Prefetch: PrefetchStride, PrefetchDegree: 1, BatchPages: 8}, 32)
	now := uint64(0)
	var victims []int
	tr.OnEvict = func(page int, dirty, thrash bool) { victims = append(victims, page) }
	for _, p := range []int{8, 9, 10} {
		if tr.Access(uint64(p)*64, false, now) != Fault {
			t.Fatalf("page %d did not fault", p)
		}
		now = settle(t, tr, now)
	}
	if st := tr.Stats(); st.Prefetches != 1 {
		t.Fatalf("Prefetches = %d, want 1 (page 11)", st.Prefetches)
	}
	// Touch the demand pages so the untouched prefetched page 11 is the
	// LRU victim.
	for _, p := range []int{8, 9, 10} {
		now++
		if tr.Access(uint64(p)*64, false, now) != Admit {
			t.Fatalf("page %d not resident", p)
		}
	}
	if tr.Access(20*64, false, now+1) != Fault {
		t.Fatal("page 20 did not fault")
	}
	last := victims[len(victims)-1]
	if last != 11 {
		t.Fatalf("victim = %d, want untouched prefetched page 11", last)
	}
	st := tr.Stats()
	if st.PrefUseless != 1 || st.PrefUseful != 0 {
		t.Errorf("accounting = useless %d useful %d; want exactly one useless", st.PrefUseless, st.PrefUseful)
	}
}

// TestBatchCoalescingBoundaries: a batch stops at the BatchPages cap, at
// an already-resident page, and at the working-set end.
func TestBatchCoalescingBoundaries(t *testing.T) {
	tr := ptier(t, Config{Frames: 8, Prefetch: PrefetchStride, PrefetchDegree: 8, BatchPages: 8}, 32)
	now := uint64(0)
	fault := func(page int) {
		t.Helper()
		if tr.Access(uint64(page)*64, false, now) != Fault {
			t.Fatalf("page %d did not fault", page)
		}
		now = settle(t, tr, now)
	}
	// Plant a resident page in the prefetch path, then clear the stride
	// table so the planting fault does not perturb stream detection.
	fault(14)
	tr.streams = [streamTableSize]faultStream{}

	fault(10)
	fault(11)
	fault(12) // confirmed: coalesces 13, then stops at resident page 14
	st := tr.Stats()
	if st.Prefetches != 1 {
		t.Fatalf("Prefetches = %d, want 1 (batch stops at resident page 14)", st.Prefetches)
	}
	if st.Batches != 1 {
		t.Fatalf("Batches = %d, want 1", st.Batches)
	}

	// Working-set end: a stream confirmed on the last page has nowhere to
	// fetch ahead.
	tr.streams = [streamTableSize]faultStream{}
	fault(29)
	fault(30)
	fault(31)
	if st := tr.Stats(); st.Prefetches != 1 || st.Batches != 1 {
		t.Errorf("Prefetches = %d, Batches = %d after end-of-set stream; want unchanged (1, 1)", st.Prefetches, st.Batches)
	}

	// BatchPages cap: degree 8 but cap 3 coalesces demand + 2.
	capped := ptier(t, Config{Frames: 8, Prefetch: PrefetchStride, PrefetchDegree: 8, BatchPages: 3}, 64)
	now = 0
	for _, p := range []int{20, 21, 22} {
		if capped.Access(uint64(p)*64, false, now) != Fault {
			t.Fatalf("page %d did not fault", p)
		}
		now = settle(t, capped, now)
	}
	if st := capped.Stats(); st.Prefetches != 2 {
		t.Errorf("Prefetches = %d with BatchPages 3, want 2 (demand + 2)", st.Prefetches)
	}
}

// TestNonUnitStridePrefetch: a confirmed stride > 1 prefetches along the
// stride as separate single-page link transactions (non-adjacent pages
// cannot coalesce), skipping occupied candidates.
func TestNonUnitStridePrefetch(t *testing.T) {
	tr := ptier(t, Config{Frames: 8, Prefetch: PrefetchStride, PrefetchDegree: 2, BatchPages: 8}, 64)
	now := uint64(0)
	fault := func(page int) {
		t.Helper()
		if tr.Access(uint64(page)*64, false, now) != Fault {
			t.Fatalf("page %d did not fault", page)
		}
	}
	fault(12)
	now = settle(t, tr, now)
	fault(15)
	now = settle(t, tr, now)
	fault(18) // stride 3 confirmed: prefetch 21 and 24 as own transactions
	st := tr.Stats()
	if st.Prefetches != 2 || st.Batches != 0 {
		t.Fatalf("Prefetches = %d, Batches = %d; want 2 single-page prefetches, no batch", st.Prefetches, st.Batches)
	}
	if tr.InflightMigrations() != 3 {
		t.Fatalf("InflightMigrations = %d, want 3 (demand + 2 prefetches)", tr.InflightMigrations())
	}
	now = settle(t, tr, now)
	for _, p := range []int{18, 21, 24} {
		if !tr.IsResident(p) {
			t.Errorf("page %d not resident after settle", p)
		}
	}

	// Occupied candidates are skipped, later ones still fetch.
	tr2 := ptier(t, Config{Frames: 8, Prefetch: PrefetchStride, PrefetchDegree: 2, BatchPages: 8}, 64)
	now = 0
	if tr2.Access(21*64, false, now) != Fault {
		t.Fatal("page 21 did not fault")
	}
	now = settle(t, tr2, now)
	tr2.streams = [streamTableSize]faultStream{}
	for _, p := range []int{12, 15} {
		if tr2.Access(uint64(p)*64, false, now) != Fault {
			t.Fatalf("page %d did not fault", p)
		}
		now = settle(t, tr2, now)
	}
	if tr2.Access(18*64, false, now) != Fault {
		t.Fatal("page 18 did not fault")
	}
	if st := tr2.Stats(); st.Prefetches != 1 {
		t.Errorf("Prefetches = %d, want 1 (resident candidate 21 skipped, 24 fetched)", st.Prefetches)
	}
}

// TestEagerEvictionOrder (stream policy): pages fetched under a streaming
// classification are stamped below every normal page and drain first, in
// fetch order, without re-touches promoting them.
func TestEagerEvictionOrder(t *testing.T) {
	classify := func(page int) bool { return page >= 8 && page < 16 }
	tr := ptier(t, Config{Frames: 4, Prefetch: PrefetchStream, PrefetchDegree: 2, BatchPages: 4}, 32)
	tr.Classify = classify
	var victims []int
	tr.OnEvict = func(page int, dirty, thrash bool) { victims = append(victims, page) }

	if tr.Access(8*64, false, 0) != Fault {
		t.Fatal("page 8 did not fault")
	}
	st := tr.Stats()
	if st.Prefetches != 2 || st.Batches != 1 {
		t.Fatalf("Prefetches = %d, Batches = %d; a streaming fault bulk-fetches immediately", st.Prefetches, st.Batches)
	}
	now := settle(t, tr, 0)
	// Resident: page 3 (normal, from initial placement) + eager 8, 9, 10.
	// Re-touch the eager pages: must not promote them past page 3's stamp
	// in eviction priority — eager pages drain first regardless.
	for _, p := range []int{8, 9, 10} {
		now++
		if tr.Access(uint64(p)*64, false, now) != Admit {
			t.Fatalf("streamed page %d not resident", p)
		}
	}
	if st := tr.Stats(); st.PrefUseful != 2 {
		t.Fatalf("PrefUseful = %d, want 2 (pages 9 and 10)", st.PrefUseful)
	}
	victims = victims[:0]
	// A non-streaming fault must evict the eager pages in fetch order
	// (8, then 9) before touching the re-touched LRU order.
	if tr.Access(20*64, false, now+1) != Fault {
		t.Fatal("page 20 did not fault")
	}
	now = settle(t, tr, now+1)
	if tr.Access(21*64, false, now+1) != Fault {
		t.Fatal("page 21 did not fault")
	}
	if len(victims) != 2 || victims[0] != 8 || victims[1] != 9 {
		t.Fatalf("victims = %v, want eager pages [8 9] in fetch order", victims)
	}
	if tr.eager[8] || tr.eager[9] {
		t.Error("eager mark not cleared on eviction")
	}
}

// TestStreamPolicyWithoutClassifier: the stream policy with no Classify
// hook bound degrades to demand-only.
func TestStreamPolicyWithoutClassifier(t *testing.T) {
	tr := ptier(t, Config{Frames: 4, Prefetch: PrefetchStream, PrefetchDegree: 4, BatchPages: 4}, 32)
	if tr.Access(8*64, false, 0) != Fault {
		t.Fatal("page 8 did not fault")
	}
	if st := tr.Stats(); st.Prefetches != 0 || st.Batches != 0 {
		t.Errorf("stats = %+v; no Classify hook must mean no prefetching", tr.Stats())
	}
}

// TestSubPageDirtyWriteback: with sub-page dirty tracking only the
// written sub-pages transfer back on eviction, and the mask resets for
// the frame's next tenant.
func TestSubPageDirtyWriteback(t *testing.T) {
	cfg := Config{PageBytes: 256, SubPageBytes: 64, Frames: 2}
	tr := ptier(t, cfg, 4)
	// Dirty sub-pages 0 and 2 of page 0; keep page 1 clean.
	if tr.Access(0, true, 1) != Admit {
		t.Fatal("write to page 0 rejected")
	}
	if tr.Access(130, true, 2) != Admit {
		t.Fatal("write to page 0 offset 130 rejected")
	}
	if tr.Access(256, false, 3) != Admit {
		t.Fatal("read of page 1 rejected")
	}
	if tr.Access(2*256, false, 4) != Fault { // evicts page 0 (LRU)
		t.Fatal("page 2 did not fault")
	}
	st := tr.Stats()
	if st.WritebacksDirty != 1 {
		t.Fatalf("WritebacksDirty = %d, want 1", st.WritebacksDirty)
	}
	if st.BytesOut != 128 {
		t.Fatalf("BytesOut = %d, want 128 (two dirty 64 B sub-pages, not the whole 256 B page)", st.BytesOut)
	}
	if tr.subdirty[0] != 0 {
		t.Error("sub-page dirty mask not cleared on eviction")
	}

	// Whole-page granularity for comparison: the same writes cost a full
	// page of writeback.
	whole := ptier(t, Config{PageBytes: 256, Frames: 2}, 4)
	whole.Access(0, true, 1)
	whole.Access(130, true, 2)
	whole.Access(256, false, 3)
	if whole.Access(2*256, false, 4) != Fault {
		t.Fatal("page 2 did not fault on the whole-page tier")
	}
	if st := whole.Stats(); st.BytesOut != 256 {
		t.Errorf("whole-page BytesOut = %d, want 256", st.BytesOut)
	}
}

// TestSnapshotRoundTripWithPrefetch serializes a tier with a multi-page
// prefetch batch in flight, a live stride table, and per-page prefetch
// accounting, restores it into a fresh tier, and requires byte-identical
// stats and behaviour from both — including the stream continuing to
// prefetch after restore.
func TestSnapshotRoundTripWithPrefetch(t *testing.T) {
	cfg := Config{PageBytes: 64, Frames: 4, Prefetch: PrefetchStride, PrefetchDegree: 4, BatchPages: 4,
		PCIeLatency: 10, PCIeBytesPerCycle: 16, MetaCycles: 6, ThrashWindow: 100}
	tr := ptier(t, cfg, 32)
	now := uint64(0)
	for _, p := range []int{8, 9} {
		if tr.Access(uint64(p)*64, false, now) != Fault {
			t.Fatalf("page %d did not fault", p)
		}
		now = settle(t, tr, now)
	}
	if tr.Access(10*64, false, now) != Fault {
		t.Fatal("page 10 did not fault")
	}
	if tr.InflightMigrations() != 1 || tr.Stats().Prefetches != 3 {
		t.Fatal("expected a 4-page prefetch batch in flight at save time")
	}

	saved, _ := snapshot.Save(tr.State)

	fresh := ptier(t, cfg, 32)
	if err := snapshot.Load(saved, fresh.State); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if fresh.Stats() != tr.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", fresh.Stats(), tr.Stats())
	}
	// Drive both tiers through the batch completion, the accuracy
	// accounting, and a stream continuation fault; every observable must
	// match cycle for cycle.
	for step := now; step < now+60; step++ {
		tr.Tick(step)
		fresh.Tick(step)
		for _, p := range []int{10, 11, 14} {
			a, b := tr.Access(uint64(p)*64, false, step), fresh.Access(uint64(p)*64, false, step)
			if a != b {
				t.Fatalf("page %d diverges at cycle %d: %v vs %v", p, step, a, b)
			}
		}
	}
	if fresh.Stats() != tr.Stats() {
		t.Fatalf("post-restore stats diverge: %+v vs %+v", fresh.Stats(), tr.Stats())
	}

	// A tier with different sub-page geometry must refuse the snapshot.
	sub := cfg
	sub.SubPageBytes = 32
	other := ptier(t, sub, 32)
	if snapshot.Load(saved, other.State) == nil {
		t.Error("loading a whole-page snapshot into a sub-page tier succeeded")
	}
}
