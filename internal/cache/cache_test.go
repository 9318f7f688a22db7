package cache

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"shmgpu/internal/memdef"
)

func smallConfig() Config {
	return Config{Name: "test", SizeBytes: 2048, Ways: 4, MSHRs: 8, MaxMergesPerMSHR: 4}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	widest := smallConfig()
	widest.MaxMergesPerMSHR = 255
	if err := widest.Validate(); err != nil {
		t.Fatalf("MaxMergesPerMSHR at the mshr.merges bound rejected: %v", err)
	}
	bad := []Config{
		{Name: "sz", SizeBytes: 100, Ways: 4, MSHRs: 1, MaxMergesPerMSHR: 1},
		{Name: "ways", SizeBytes: 2048, Ways: 0, MSHRs: 1, MaxMergesPerMSHR: 1},
		{Name: "div", SizeBytes: 2048, Ways: 3, MSHRs: 1, MaxMergesPerMSHR: 1},
		{Name: "pow2", SizeBytes: 3 * 2048, Ways: 4, MSHRs: 1, MaxMergesPerMSHR: 1},
		{Name: "mshr", SizeBytes: 2048, Ways: 4, MSHRs: 0, MaxMergesPerMSHR: 1},
		{Name: "merge", SizeBytes: 2048, Ways: 4, MSHRs: 1, MaxMergesPerMSHR: 0},
		{Name: "merge-wide", SizeBytes: 2048, Ways: 4, MSHRs: 1, MaxMergesPerMSHR: 256},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q should be invalid", cfg.Name)
		}
	}
}

func TestReadMissFillHit(t *testing.T) {
	c := New(smallConfig())
	addr := memdef.Addr(0x1000)
	if got := c.Read(addr); got != MissNew {
		t.Fatalf("first read = %v, want miss-new", got)
	}
	wb, waiters := c.Fill(addr)
	if len(wb) != 0 {
		t.Fatalf("unexpected writebacks on fill: %v", wb)
	}
	if waiters != 1 {
		t.Fatalf("waiters = %d, want 1", waiters)
	}
	if got := c.Read(addr); got != Hit {
		t.Fatalf("read after fill = %v, want hit", got)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestSectorGranularity(t *testing.T) {
	c := New(smallConfig())
	base := memdef.Addr(0x2000)
	if got := c.Read(base); got != MissNew {
		t.Fatal("sector 0 should miss")
	}
	c.Fill(base)
	// Other sectors of the same block are still invalid.
	for s := 1; s < memdef.SectorsPerBlock; s++ {
		a := base + memdef.Addr(s*memdef.SectorSize)
		if got := c.Read(a); got != MissNew {
			t.Errorf("sector %d = %v, want miss-new", s, got)
		}
	}
}

func TestMSHRMergeSameSector(t *testing.T) {
	c := New(smallConfig())
	addr := memdef.Addr(0x3000)
	if got := c.Read(addr); got != MissNew {
		t.Fatal("want miss-new")
	}
	for i := 0; i < 4; i++ {
		if got := c.Read(addr); got != MissMerged {
			t.Fatalf("merge %d = %v, want miss-merged", i, got)
		}
	}
	// Merge capacity (4) exhausted.
	if got := c.Read(addr); got != Blocked {
		t.Fatalf("over-capacity merge = %v, want blocked", got)
	}
	_, waiters := c.Fill(addr)
	if waiters != 5 {
		t.Fatalf("waiters = %d, want 5 (1 original + 4 merged)", waiters)
	}
}

func TestMSHRSameBlockDifferentSector(t *testing.T) {
	c := New(smallConfig())
	base := memdef.Addr(0x4000)
	c.Read(base)
	// Second sector of the same block reuses the MSHR entry (no new entry).
	if got := c.Read(base + memdef.SectorSize); got != MissNew {
		t.Fatalf("got %v, want miss-new", got)
	}
	if c.MSHRsInUse() != 1 {
		t.Fatalf("MSHRsInUse = %d, want 1", c.MSHRsInUse())
	}
}

func TestMSHRExhaustion(t *testing.T) {
	c := New(smallConfig()) // 8 MSHRs
	for i := 0; i < 8; i++ {
		if got := c.Read(memdef.Addr(i * memdef.BlockSize)); got != MissNew {
			t.Fatalf("miss %d = %v", i, got)
		}
	}
	if !c.MSHRFull() {
		t.Fatal("MSHRFull should be true")
	}
	if got := c.Read(memdef.Addr(100 * memdef.BlockSize)); got != Blocked {
		t.Fatalf("got %v, want blocked", got)
	}
	// Draining one entry unblocks.
	c.Fill(memdef.Addr(0))
	if got := c.Read(memdef.Addr(100 * memdef.BlockSize)); got != MissNew {
		t.Fatalf("after drain got %v, want miss-new", got)
	}
}

func TestWriteNoFetch(t *testing.T) {
	c := New(smallConfig())
	addr := memdef.Addr(0x5000)
	out, wb := c.Write(addr)
	if out != MissNew || len(wb) != 0 {
		t.Fatalf("write miss = %v wb=%v", out, wb)
	}
	// The written sector is now a hit for reads (valid+dirty).
	if got := c.Read(addr); got != Hit {
		t.Fatalf("read after write = %v, want hit", got)
	}
	if c.DirtySectorCount() != 1 {
		t.Fatalf("dirty sectors = %d, want 1", c.DirtySectorCount())
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	cfg := smallConfig() // 4 sets, 4 ways
	c := New(cfg)
	sets := cfg.SizeBytes / memdef.BlockSize / cfg.Ways
	// Fill one set with dirty lines: blocks mapping to set 0.
	stride := memdef.Addr(sets * memdef.BlockSize)
	for i := 0; i < cfg.Ways; i++ {
		c.Write(memdef.Addr(i) * stride)
	}
	// Next allocation in set 0 evicts the LRU dirty line.
	out, wb := c.Write(memdef.Addr(cfg.Ways) * stride)
	if out != MissNew {
		t.Fatalf("out = %v", out)
	}
	if len(wb) != 1 {
		t.Fatalf("writebacks = %v, want 1", wb)
	}
	if wb[0].BlockAddr != 0 {
		t.Errorf("evicted block = %#x, want 0 (LRU)", uint64(wb[0].BlockAddr))
	}
	if wb[0].DirtySectors() != 1 {
		t.Errorf("dirty sectors in wb = %d, want 1", wb[0].DirtySectors())
	}
}

func TestLRUOrder(t *testing.T) {
	cfg := smallConfig()
	c := New(cfg)
	sets := cfg.SizeBytes / memdef.BlockSize / cfg.Ways
	stride := memdef.Addr(sets * memdef.BlockSize)
	for i := 0; i < cfg.Ways; i++ {
		c.Read(memdef.Addr(i) * stride)
		c.Fill(memdef.Addr(i) * stride)
	}
	// Touch block 0 so block 1 becomes LRU.
	if got := c.Read(0); got != Hit {
		t.Fatal("block 0 should hit")
	}
	c.Read(memdef.Addr(cfg.Ways) * stride)
	_, _ = c.Fill(memdef.Addr(cfg.Ways) * stride)
	// Block 1 must have been evicted; block 0 must survive.
	if got := c.Read(0); got != Hit {
		t.Error("block 0 was evicted despite being MRU")
	}
	if got := c.Read(1 * stride); got == Hit {
		t.Error("block 1 should have been evicted as LRU")
	}
}

func TestFillWithoutMSHRInstalls(t *testing.T) {
	c := New(smallConfig())
	addr := memdef.Addr(0x7000)
	wb, waiters := c.Fill(addr)
	if waiters != 0 || len(wb) != 0 {
		t.Fatalf("waiters=%d wb=%v", waiters, wb)
	}
	if got := c.Read(addr); got != Hit {
		t.Fatalf("prefetch-style fill not visible: %v", got)
	}
}

func TestCleanInvalidate(t *testing.T) {
	c := New(smallConfig())
	addr := memdef.Addr(0x100)
	c.Write(addr)
	c.CleanInvalidate(addr)
	if c.Probe(addr) {
		t.Fatal("sector still present after CleanInvalidate")
	}
	if c.DirtySectorCount() != 0 {
		t.Fatal("dirty bits not cleared")
	}
}

func TestFlushAll(t *testing.T) {
	c := New(smallConfig())
	c.Write(0x000)
	c.Write(0x480) // different block, different sector
	wbs := c.FlushAll()
	if len(wbs) != 2 {
		t.Fatalf("flush writebacks = %d, want 2", len(wbs))
	}
	if c.ValidSectorCount() != 0 {
		t.Fatal("cache not empty after flush")
	}
	if got := c.Read(0x000); got != MissNew {
		t.Fatalf("read after flush = %v", got)
	}
}

// TestFlushAllBufferOutlivesWrites pins FlushAll's result contract: the
// slice survives later Write, Fill and Read calls (the L2 bank streams it
// out over many cycles while the cache keeps working), and a later flush
// refills the same buffer without allocating.
func TestFlushAllBufferOutlivesWrites(t *testing.T) {
	cfg := smallConfig()
	c := New(cfg)
	sets := memdef.Addr(cfg.SizeBytes / memdef.BlockSize / cfg.Ways)
	for w := 0; w < cfg.Ways; w++ {
		c.Write(memdef.Addr(w) * sets * memdef.BlockSize)
	}
	wbs := c.FlushAll()
	want := append([]Writeback(nil), wbs...)
	// Refill set 0 with dirty lines, then evict them: every eviction goes
	// through the Write/Fill scratch buffer.
	for w := 0; w < 3*cfg.Ways; w++ {
		a := memdef.Addr(w+cfg.Ways) * sets * memdef.BlockSize
		c.Write(a)
		c.Read(a + memdef.SectorSize)
		c.Fill(a + memdef.SectorSize)
	}
	if !reflect.DeepEqual(wbs, want) {
		t.Fatalf("FlushAll result changed under later writes: %v, want %v", wbs, want)
	}
	dirty := func() {
		for w := 0; w < cfg.Ways; w++ {
			c.Write(memdef.Addr(w) * sets * memdef.BlockSize)
		}
	}
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	// One run of 20 rounds counts every allocation; AllocsPerRun(20, ...)
	// would round a total below 20 down to 0.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 20; i++ {
			dirty()
			c.FlushAll()
		}
	}); allocs != 0 {
		t.Errorf("20 repeated FlushAlls allocate %v times, want 0", allocs)
	}
}

func TestFlushPanicsWithOutstandingMSHRs(t *testing.T) {
	c := New(smallConfig())
	c.Read(0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.FlushAll()
}

func TestProbeDoesNotTouchStats(t *testing.T) {
	c := New(smallConfig())
	c.Probe(0x1000)
	if c.Stats.Accesses() != 0 {
		t.Fatal("Probe should not count as access")
	}
}

// Reference model: a map of present/dirty sectors with unlimited
// associativity is too permissive, so instead we check invariants under
// random operation sequences.
func TestRandomizedInvariants(t *testing.T) {
	cfg := Config{Name: "rnd", SizeBytes: 1024, Ways: 2, MSHRs: 4, MaxMergesPerMSHR: 2}
	c := New(cfg)
	rng := rand.New(rand.NewSource(7))
	pending := make(map[memdef.Addr]bool) // sector addresses being fetched
	held := 0
	maxSectors := cfg.SizeBytes / memdef.SectorSize
	for i := 0; i < 20000; i++ {
		addr := memdef.Addr(rng.Intn(64)) * memdef.SectorSize
		switch rng.Intn(3) {
		case 0:
			out := c.Read(addr)
			switch out {
			case MissNew:
				if pending[addr] {
					t.Fatalf("MissNew for already-pending sector %#x", uint64(addr))
				}
				pending[addr] = true
			case MissMerged:
				if !pending[addr] {
					t.Fatalf("MissMerged without pending fetch %#x", uint64(addr))
				}
			case Hit:
				if pending[addr] {
					// A fill may have installed the sector via another
					// path (write), which is fine.
					_ = held
				}
			}
		case 1:
			c.Write(addr)
		case 2:
			if len(pending) > 0 {
				// Fill a random pending sector.
				for a := range pending {
					c.Fill(a)
					delete(pending, a)
					break
				}
			}
		}
		if got := c.ValidSectorCount(); got > maxSectors {
			t.Fatalf("valid sectors %d exceed capacity %d", got, maxSectors)
		}
		if c.MSHRsInUse() > cfg.MSHRs {
			t.Fatalf("MSHRs in use %d exceed %d", c.MSHRsInUse(), cfg.MSHRs)
		}
	}
}

func TestDirtyNeverExceedsValid(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "q", SizeBytes: 512, Ways: 2, MSHRs: 4, MaxMergesPerMSHR: 2})
		for _, op := range ops {
			addr := memdef.Addr(op%128) * memdef.SectorSize
			if op&0x8000 != 0 {
				c.Write(addr)
			} else {
				if c.Read(addr) == MissNew {
					c.Fill(addr)
				}
			}
			if c.DirtySectorCount() > c.ValidSectorCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Hit: "hit", MissNew: "miss-new", MissMerged: "miss-merged", Blocked: "blocked"} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}
