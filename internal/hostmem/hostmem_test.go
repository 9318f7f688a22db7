package hostmem

import (
	"testing"
)

// tier builds a 4-page working set with a 2-frame budget and fast,
// deterministic timing: transfer 4 cycles (64 B page / 16 B-per-cycle),
// latency 10, metadata 6 — one fault is ready 20 cycles after an idle
// link accepts it.
func tier(t *testing.T, cfg Config) *Tier {
	t.Helper()
	if cfg.PageBytes == 0 {
		cfg.PageBytes = 64
	}
	if cfg.Frames == 0 {
		cfg.Frames = 2
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
	tr, err := New(cfg, 4*cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// settle ticks until the migration ring drains. Like the simulator's
// requesters, which retry every cycle, it replays each access waiting on a
// page in the cycle the page lands.
func settle(t *testing.T, tr *Tier, now uint64) uint64 {
	t.Helper()
	for i := 0; tr.InflightMigrations() > 0; i++ {
		if i > 1_000_000 {
			t.Fatal("migration ring never drained")
		}
		now++
		tr.Tick(now)
		for p, st := range tr.state {
			if st == pageLanded && tr.Access(uint64(p)*tr.cfg.PageBytes, false, now) != Admit {
				t.Fatalf("replay on landed page %d rejected", p)
			}
		}
	}
	return now
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{PageBytes: 48}).Validate(); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if err := (Config{Frames: -1}).Validate(); err == nil {
		t.Error("negative frame budget accepted")
	}
}

// TestExactlyFullBoundary: a frame budget exactly covering the working
// set prepopulates everything; no access ever faults and the tier stays
// stat-silent (the migration-equivalence property at ratio 1.0).
func TestExactlyFullBoundary(t *testing.T) {
	tr := tier(t, Config{Frames: 4})
	if tr.Resident() != 4 {
		t.Fatalf("Resident = %d, want 4 (prepopulated)", tr.Resident())
	}
	for cycle := uint64(0); cycle < 50; cycle++ {
		tr.Tick(cycle)
		addr := (cycle % 4) * 64
		if got := tr.Access(addr, cycle%2 == 0, cycle); got != Admit {
			t.Fatalf("Access(%d) at cycle %d = %v, want Admit", addr, cycle, got)
		}
	}
	if tr.Stats() != (Stats{}) {
		t.Errorf("stats = %+v, want all-zero at ratio 1.0", tr.Stats())
	}
	if ne := tr.NextEvent(0); ne != ^uint64(0) {
		t.Errorf("NextEvent = %d, want idle sentinel", ne)
	}
}

// TestFaultOnFirstTouch pins the fault protocol on one overflow page:
// warm pages admit immediately, the first touch of a non-resident page
// faults, retries stall while the migration is in flight, and the access
// admits on exactly the cycle after NextEvent says the page is ready.
func TestFaultOnFirstTouch(t *testing.T) {
	tr := tier(t, Config{Frames: 3})
	// Pages 0-2 are the warm initial placement.
	for p := uint64(0); p < 3; p++ {
		if got := tr.Access(p*64, false, 0); got != Admit {
			t.Fatalf("warm page %d: %v, want Admit", p, got)
		}
	}
	// Page 3 overflows: frames are full, so the fault evicts LRU page 0
	// (oldest placement stamp) and starts the migration.
	if got := tr.Access(3*64, false, 5); got != Fault {
		t.Fatalf("first touch of page 3 = %v, want Fault", got)
	}
	st := tr.Stats()
	if st.Faults != 1 || st.Evictions != 1 || st.WritebacksClean != 1 || st.WritebacksDirty != 0 {
		t.Fatalf("stats after fault = %+v; want 1 fault, 1 clean eviction", st)
	}
	if tr.IsResident(3) {
		t.Fatal("page 3 resident before migration completed")
	}
	// ready = start(5) + transfer(4) + latency(10) + meta(6) = 25.
	if ne := tr.NextEvent(6); ne != 25 {
		t.Fatalf("NextEvent = %d, want 25", ne)
	}
	// Retries while migrating stall and count replays.
	for now := uint64(6); now < 25; now++ {
		tr.Tick(now)
		if got := tr.Access(3*64, false, now); got != Stall {
			t.Fatalf("retry at %d = %v, want Stall", now, got)
		}
	}
	if tr.Stats().Replays != 19 {
		t.Fatalf("Replays = %d, want 19", tr.Stats().Replays)
	}
	tr.Tick(25)
	if got := tr.Access(3*64, false, 25); got != Admit {
		t.Fatalf("post-migration access = %v, want Admit", got)
	}
	st = tr.Stats()
	if st.MigrationsIn != 1 || st.BytesIn != 64 || st.MetaCycles != 6 {
		t.Errorf("completion stats = %+v", st)
	}
}

// TestEvictionThenRefault (thrash): with a 2-frame budget and a 3-page
// loop, pages cycle through eviction and refault; evictions within the
// thrash window are counted, and the same page faults repeatedly.
func TestEvictionThenRefault(t *testing.T) {
	tr := tier(t, Config{Frames: 2})
	now := uint64(0)
	touch := func(page uint64) {
		t.Helper()
		for {
			now++
			tr.Tick(now)
			if tr.Access(page*64, false, now) == Admit {
				return
			}
		}
	}
	// 0 and 1 are warm; looping 0→1→2 with LRU evicts the page needed
	// two steps later, every step, once the set exceeds the budget.
	for i := 0; i < 9; i++ {
		touch(uint64(i % 3))
	}
	st := tr.Stats()
	if st.Faults < 3 {
		t.Errorf("Faults = %d; a 3-page loop over 2 frames must refault", st.Faults)
	}
	if st.Faults != st.MigrationsIn {
		t.Errorf("Faults = %d, MigrationsIn = %d; loop settles every migration", st.Faults, st.MigrationsIn)
	}
	if st.Thrash == 0 {
		t.Errorf("Thrash = 0; refaults land well inside the %d-cycle window", tr.cfg.ThrashWindow)
	}
	if st.Evictions != st.Faults {
		t.Errorf("Evictions = %d, Faults = %d; every fault over a full budget evicts", st.Evictions, st.Faults)
	}
}

// TestLandedPageHeldUntilTouched: a demand page that lands stays out of
// eviction until an access touches it. On one frame, a fault for the
// other page in the landing cycle stalls instead of stealing the frame,
// so the access that caused the migration always replays on its page.
func TestLandedPageHeldUntilTouched(t *testing.T) {
	tr := tier(t, Config{Frames: 1})
	if tr.Access(64, false, 0) != Fault {
		t.Fatal("page 1 did not fault")
	}
	now := uint64(0)
	for tr.InflightMigrations() > 0 {
		now++
		tr.Tick(now)
	}
	if !tr.IsResident(1) {
		t.Fatal("page 1 not resident after its migration")
	}
	if !tr.Blocked(0) {
		t.Error("Blocked(page 0) = false; the only frame holds a page no access has touched")
	}
	if got := tr.Access(0, false, now); got != Stall {
		t.Fatalf("page 0 access in the landing cycle = %v, want Stall", got)
	}
	if st := tr.Stats(); st.Faults != 1 || st.Evictions != 1 {
		t.Fatalf("Faults = %d, Evictions = %d; the landed page must not be evicted", st.Faults, st.Evictions)
	}
	if tr.Access(64, false, now) != Admit {
		t.Fatal("replay on landed page 1 rejected")
	}
	if tr.Access(0, false, now) != Fault {
		t.Fatal("page 0 did not fault once page 1 was touched")
	}
	if st := tr.Stats(); st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2 (page 0, then page 1 after its replay)", st.Evictions)
	}
}

// TestDirtyVersusCleanWriteback: evicting a written page charges a
// writeback transfer on the link; evicting a clean page is free.
func TestDirtyVersusCleanWriteback(t *testing.T) {
	tr := tier(t, Config{Frames: 2})
	var evicted []struct {
		page  int
		dirty bool
	}
	tr.OnEvict = func(page int, dirty, thrash bool) {
		evicted = append(evicted, struct {
			page  int
			dirty bool
		}{page, dirty})
	}
	// Dirty page 0, keep page 1 clean; then fault pages 2 and 3 so both
	// warm pages evict in LRU order (0 first — its write stamp is older
	// than page 1's read stamp).
	if tr.Access(0, true, 1) != Admit {
		t.Fatal("write to warm page 0 rejected")
	}
	if tr.Access(64, false, 2) != Admit {
		t.Fatal("read of warm page 1 rejected")
	}
	if tr.Access(2*64, false, 3) != Fault {
		t.Fatal("page 2 did not fault")
	}
	if tr.Access(3*64, false, 4) != Fault {
		t.Fatal("page 3 did not fault")
	}
	st := tr.Stats()
	if st.WritebacksDirty != 1 || st.WritebacksClean != 1 {
		t.Fatalf("writebacks = %+v; want one dirty (page 0), one clean (page 1)", st)
	}
	if st.BytesOut != 64 {
		t.Errorf("BytesOut = %d; only the dirty victim transfers back", st.BytesOut)
	}
	if len(evicted) != 2 || evicted[0].page != 0 || !evicted[0].dirty || evicted[1].page != 1 || evicted[1].dirty {
		t.Errorf("eviction order/dirtiness = %+v; want dirty page 0 then clean page 1", evicted)
	}
	// The dirty writeback serializes ahead of the fault transfer:
	// page 2 ready = wb(4) + transfer(4) + latency(10) + meta(6) = cycle 23
	// one transfer later than a clean eviction would allow.
	now := settle(t, tr, 4)
	if st := tr.Stats(); st.MigrationsIn != 2 {
		t.Fatalf("MigrationsIn = %d after settle at %d", st.MigrationsIn, now)
	}
	// Refault page 0: its dirty bit must have been cleared on eviction,
	// so the next eviction of it (never rewritten) is clean.
	if tr.Access(0, false, now) != Fault {
		t.Fatal("evicted page 0 did not refault")
	}
}

// TestMetadataCallbacks pins the teardown/re-establishment hooks in both
// directions: OnEvict fires as coverage is torn down device-side,
// OnFaultIn fires with the fault-to-ready latency as it is rebuilt.
func TestMetadataCallbacks(t *testing.T) {
	tr := tier(t, Config{Frames: 2})
	var faultIns []uint64
	var evicts []int
	tr.OnFaultIn = func(page int, latency uint64) { faultIns = append(faultIns, latency) }
	tr.OnEvict = func(page int, dirty, thrash bool) { evicts = append(evicts, page) }
	if tr.Access(2*64, false, 0) != Fault {
		t.Fatal("page 2 did not fault")
	}
	if len(evicts) != 1 || evicts[0] != 0 {
		t.Fatalf("evicts = %v; teardown must fire for victim page 0 at fault time", evicts)
	}
	if len(faultIns) != 0 {
		t.Fatal("OnFaultIn fired before the migration completed")
	}
	settle(t, tr, 0)
	// latency = transfer(4) + latency(10) + meta(6) = 20.
	if len(faultIns) != 1 || faultIns[0] != 20 {
		t.Fatalf("faultIns = %v; want one completion with latency 20", faultIns)
	}
}

// TestLRUVictim: after a warm placement {0,1} where page 0 is re-touched
// later, the eviction takes page 1 (least recently used), not page 0
// (admitted first).
func TestLRUVictim(t *testing.T) {
	tr := tier(t, Config{Frames: 2})
	victim := -1
	tr.OnEvict = func(page int, dirty, thrash bool) { victim = page }
	// Re-touch page 0 so its LRU stamp is newest.
	if tr.Access(0, false, 1) != Admit {
		t.Fatal("warm page 0 rejected")
	}
	if tr.Access(2*64, false, 2) != Fault {
		t.Fatal("page 2 did not fault")
	}
	if victim != 1 {
		t.Errorf("evicted page %d, want 1", victim)
	}
}

// TestRingFullStalls: with a single-slot migration ring, a second fault
// must stall (not queue) until the first completes; with every frame
// reserved by in-flight migrations and nothing resident to evict, faults
// also stall rather than overcommit.
func TestRingFullStalls(t *testing.T) {
	cfg := Config{Frames: 2, MaxInflight: 1}
	tr := tier(t, cfg)
	if tr.Access(2*64, false, 0) != Fault {
		t.Fatal("page 2 did not fault")
	}
	if got := tr.Access(3*64, false, 1); got != Stall {
		t.Errorf("second fault with full ring = %v, want Stall", got)
	}
	now := settle(t, tr, 1)
	if got := tr.Access(3*64, false, now); got != Fault {
		t.Errorf("fault after ring drained = %v, want Fault", got)
	}

	// All frames reserved in flight: 1-frame tier, one migration running
	// → no resident victim, the competing fault must stall.
	one, err := New(Config{PageBytes: 64, Frames: 1, PCIeLatency: 10, PCIeBytesPerCycle: 16, MetaCycles: 6, ThrashWindow: 100, MaxInflight: 4}, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	// Evict the single warm page by faulting another, then fault a third
	// while the ring holds the only frame's future occupant.
	if one.Access(1*64, false, 0) != Fault {
		t.Fatal("page 1 did not fault")
	}
	if got := one.Access(2*64, false, 1); got != Stall {
		t.Errorf("fault with all frames reserved = %v, want Stall", got)
	}
}
