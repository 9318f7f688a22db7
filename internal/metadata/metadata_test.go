package metadata

import (
	"testing"
	"testing/quick"

	"shmgpu/internal/memdef"
)

const testProtected = 1 << 20 // 1 MiB protected space

func testLayout(t *testing.T) *Layout {
	t.Helper()
	l, err := NewLayout(testProtected)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLayoutRejectsBadSizes(t *testing.T) {
	for _, sz := range []uint64{0, 100, CounterCoverage - 1, CounterCoverage + 1} {
		if _, err := NewLayout(sz); err == nil {
			t.Errorf("size %d accepted", sz)
		}
	}
}

func TestLayoutRegionSizes(t *testing.T) {
	l := testLayout(t)
	if got := l.NumCounterBlocks(); got != testProtected/CounterCoverage {
		t.Errorf("counter blocks = %d, want %d", got, testProtected/CounterCoverage)
	}
	// 8 B MAC per 128 B block = 1/16 of data.
	if got := uint64(l.BlockMACAddr(0)) + testProtected/16; got != uint64(l.ChunkMACAddr(0)) {
		t.Errorf("block MAC region size wrong: next base %#x, want %#x", uint64(l.ChunkMACAddr(0)), got)
	}
	if l.MetadataBytes() == 0 || l.TotalBytes() != testProtected+l.MetadataBytes() {
		t.Errorf("metadata accounting inconsistent: %s", l.Describe())
	}
	// Storage overhead: counters 1/64 + blkMAC 1/16 + chkMAC 1/512 + BMT.
	if ov := l.StorageOverhead(); ov < 0.079 || ov > 0.095 {
		t.Errorf("storage overhead = %.4f, want ~0.081-0.09", ov)
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	l := testLayout(t)
	// Walk every data block; all metadata addresses must land in disjoint
	// regions above the data.
	type span struct{ lo, hi uint64 }
	inSpan := func(a memdef.Addr, s span) bool { return uint64(a) >= s.lo && uint64(a) < s.hi }
	ctr := span{uint64(l.CounterBlockAddr(0)), uint64(l.CounterBlockAddr(0)) + l.counterBytes}
	bmac := span{l.blkMACBase, l.blkMACBase + l.blkMACBytes}
	cmac := span{l.chkMACBase, l.chkMACBase + l.chkMACBytes}
	for a := memdef.Addr(0); a < testProtected; a += memdef.BlockSize * 37 {
		ca, _ := l.CounterAddrFor(a)
		if !inSpan(ca, ctr) {
			t.Fatalf("counter addr %#x outside counter region", uint64(ca))
		}
		if !inSpan(l.BlockMACAddr(a), bmac) {
			t.Fatalf("block MAC addr outside region for %#x", uint64(a))
		}
		if !inSpan(l.ChunkMACAddr(a), cmac) {
			t.Fatalf("chunk MAC addr outside region for %#x", uint64(a))
		}
		if !l.InData(a) {
			t.Fatalf("data address %#x not recognized", uint64(a))
		}
	}
	if l.InData(memdef.Addr(testProtected)) {
		t.Error("metadata base misclassified as data")
	}
}

func TestCounterIndexing(t *testing.T) {
	l := testLayout(t)
	// Blocks 0..63 share counter block 0; block 64 starts counter block 1.
	cb, slot := l.CounterIndex(0)
	if cb != 0 || slot != 0 {
		t.Errorf("block 0 -> (%d,%d)", cb, slot)
	}
	cb, slot = l.CounterIndex(63 * memdef.BlockSize)
	if cb != 0 || slot != 63 {
		t.Errorf("block 63 -> (%d,%d)", cb, slot)
	}
	cb, slot = l.CounterIndex(64 * memdef.BlockSize)
	if cb != 1 || slot != 0 {
		t.Errorf("block 64 -> (%d,%d)", cb, slot)
	}
}

func TestCounterSectorSpread(t *testing.T) {
	l := testLayout(t)
	// The 64 minors of one counter block spread across its 4 sectors,
	// 16 per sector.
	base := memdef.Addr(0)
	seen := make(map[memdef.Addr]int)
	for b := 0; b < MinorsPerCounterBlock; b++ {
		sec := l.CounterSectorFor(base + memdef.Addr(b*memdef.BlockSize))
		seen[sec]++
	}
	if len(seen) != memdef.SectorsPerBlock {
		t.Fatalf("minors spread over %d sectors, want %d", len(seen), memdef.SectorsPerBlock)
	}
	for sec, n := range seen {
		if n != 16 {
			t.Errorf("sector %#x serves %d minors, want 16", uint64(sec), n)
		}
	}
}

func TestMACAddressesDistinctPerBlock(t *testing.T) {
	l := testLayout(t)
	seen := make(map[memdef.Addr]bool)
	for a := memdef.Addr(0); a < testProtected; a += memdef.BlockSize {
		m := l.BlockMACAddr(a)
		if seen[m] {
			t.Fatalf("MAC address %#x reused", uint64(m))
		}
		seen[m] = true
	}
}

func TestChunkMACSharedWithinChunk(t *testing.T) {
	l := testLayout(t)
	base := memdef.Addr(3 * memdef.ChunkSize)
	want := l.ChunkMACAddr(base)
	for b := 0; b < memdef.BlocksPerChunk; b++ {
		if got := l.ChunkMACAddr(base + memdef.Addr(b*memdef.BlockSize)); got != want {
			t.Fatalf("block %d of chunk has different chunk MAC addr", b)
		}
	}
	if l.ChunkMACAddr(base+memdef.ChunkSize) == want {
		t.Error("adjacent chunk shares a chunk MAC address")
	}
}

func TestBMTGeometry(t *testing.T) {
	l := testLayout(t)
	// 1 MiB data -> 128 counter blocks -> level0: 8 nodes, level1: 1 node
	// -> root on chip above level 1? level1 has 1 node so loop stops when
	// n==1: levels stored: 128->8 (level0), 8->1 (level1). Stored levels=2.
	if l.BMTLevels() != 2 {
		t.Fatalf("BMT levels = %d, want 2", l.BMTLevels())
	}
	if l.BMTNodesAt(0) != 8 || l.BMTNodesAt(1) != 1 {
		t.Fatalf("level sizes = %d,%d; want 8,1", l.BMTNodesAt(0), l.BMTNodesAt(1))
	}
}

func TestBMTPath(t *testing.T) {
	l := testLayout(t)
	path, slots := l.BMTPathForCounter(0)
	if len(path) != 2 || len(slots) != 2 {
		t.Fatalf("path len = %d", len(path))
	}
	if path[0] != l.BMTNodeAddr(0, 0) || slots[0] != 0 {
		t.Errorf("leaf step wrong: %#x slot %d", uint64(path[0]), slots[0])
	}
	// Counter block 17 -> leaf node 1 slot 1 -> level1 node 0 slot 1.
	path, slots = l.BMTPathForCounter(17)
	if path[0] != l.BMTNodeAddr(0, 1) || slots[0] != 1 {
		t.Errorf("cb17 leaf: %#x slot %d", uint64(path[0]), slots[0])
	}
	if path[1] != l.BMTNodeAddr(1, 0) || slots[1] != 1 {
		t.Errorf("cb17 level1: %#x slot %d", uint64(path[1]), slots[1])
	}
}

func TestBMTPathProperty(t *testing.T) {
	l := testLayout(t)
	f := func(raw uint32) bool {
		cb := uint64(raw) % l.NumCounterBlocks()
		path, slots := l.BMTPathForCounter(cb)
		if len(path) != l.BMTLevels() {
			return false
		}
		// Each address must be block-aligned and inside the BMT area.
		for i, a := range path {
			if uint64(a)%memdef.BlockSize != 0 {
				return false
			}
			if slots[i] < 0 || slots[i] >= BMTArity {
				return false
			}
			if uint64(a) < l.chkMACBase+l.chkMACBytes || uint64(a) >= l.totalBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBMTNodeAddrPanics(t *testing.T) {
	l := testLayout(t)
	for _, fn := range []func(){
		func() { l.BMTNodeAddr(-1, 0) },
		func() { l.BMTNodeAddr(99, 0) },
		func() { l.BMTNodeAddr(0, 1<<40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCounterBlockIncrement(t *testing.T) {
	var cb CounterBlock
	if cb.Increment(5) {
		t.Fatal("first increment must not overflow")
	}
	maj, min := cb.Seed(5)
	if maj != 0 || min != 1 {
		t.Fatalf("seed = (%d,%d), want (0,1)", maj, min)
	}
	// Drive slot 5 to overflow.
	for i := 0; i < MinorMax-1; i++ {
		if cb.Increment(5) {
			t.Fatalf("unexpected overflow at i=%d", i)
		}
	}
	cb.Minors[9] = 55
	if !cb.Increment(5) {
		t.Fatal("expected overflow")
	}
	if cb.Major != 1 {
		t.Errorf("major = %d, want 1", cb.Major)
	}
	if cb.Minors[5] != 1 {
		t.Errorf("overflowing slot minor = %d, want 1", cb.Minors[5])
	}
	if cb.Minors[9] != 0 {
		t.Errorf("sibling minor not reset: %d", cb.Minors[9])
	}
}

func TestSeedNeverRepeatsAcrossIncrements(t *testing.T) {
	// Property: the (major, minor) pair for a slot never repeats across
	// increments — the foundation of counter-mode security.
	var cb CounterBlock
	seen := map[[2]uint64]bool{{0, 0}: true}
	for i := 0; i < 1000; i++ {
		cb.Increment(3)
		maj, min := cb.Seed(3)
		key := [2]uint64{maj, uint64(min)}
		if seen[key] {
			t.Fatalf("seed (%d,%d) reused at step %d", maj, min, i)
		}
		seen[key] = true
	}
}

func TestCounterBlockString(t *testing.T) {
	var cb CounterBlock
	cb.Increment(0)
	if cb.String() == "" {
		t.Error("empty String")
	}
}

func TestLayout4GB(t *testing.T) {
	// The paper's full 4 GB protected range must lay out cleanly.
	l, err := NewLayout(4 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if l.BMTLevels() < 4 {
		t.Errorf("4 GB BMT levels = %d, want >= 4", l.BMTLevels())
	}
	if ov := l.StorageOverhead(); ov > 0.10 {
		t.Errorf("4 GB storage overhead = %.4f, want < 10%%", ov)
	}
}
