package bmt

import (
	"errors"
	"math/rand"
	"testing"

	"shmgpu/internal/cryptoengine"
	"shmgpu/internal/memdef"
	"shmgpu/internal/metadata"
)

// sliceBacking is a flat in-memory backing store.
type sliceBacking []byte

func (s sliceBacking) ReadRaw(addr memdef.Addr, buf []byte)  { copy(buf, s[addr:]) }
func (s sliceBacking) WriteRaw(addr memdef.Addr, buf []byte) { copy(s[addr:], buf) }

func newFixture(t *testing.T, protected uint64) (*Tree, *metadata.Layout, sliceBacking, *cryptoengine.Engine) {
	t.Helper()
	layout, err := metadata.NewLayout(protected)
	if err != nil {
		t.Fatal(err)
	}
	backing := make(sliceBacking, layout.TotalBytes())
	eng := cryptoengine.New(cryptoengine.DeriveKeys(7))
	tree := New(layout, eng, 2, backing)
	return tree, layout, backing, eng
}

func writeCounter(l *metadata.Layout, backing sliceBacking, idx uint64, cb *metadata.CounterBlock) {
	var buf [CounterBlockBytes]byte
	EncodeCounterBlock(cb, buf[:])
	backing.WriteRaw(l.CounterBlockAddr(idx), buf[:])
}

func TestEncodeDecodeCounterBlock(t *testing.T) {
	var cb metadata.CounterBlock
	cb.Major = 0xDEADBEEF
	cb.Minors[0] = 1
	cb.Minors[63] = 127
	var buf [CounterBlockBytes]byte
	EncodeCounterBlock(&cb, buf[:])
	var back metadata.CounterBlock
	DecodeCounterBlock(buf[:], &back)
	if back != cb {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, cb)
	}
}

func TestVerifyAfterRebuild(t *testing.T) {
	tree, layout, backing, _ := newFixture(t, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i := uint64(0); i < layout.NumCounterBlocks(); i++ {
		var cb metadata.CounterBlock
		cb.Major = rng.Uint64() % 1000
		for j := range cb.Minors {
			cb.Minors[j] = uint8(rng.Intn(128))
		}
		writeCounter(layout, backing, i, &cb)
	}
	tree.Rebuild()
	for i := uint64(0); i < layout.NumCounterBlocks(); i++ {
		if err := tree.Verify(i); err != nil {
			t.Fatalf("counter %d: %v", i, err)
		}
	}
}

func TestUpdateThenVerify(t *testing.T) {
	tree, layout, backing, _ := newFixture(t, 1<<20)
	tree.Rebuild()
	oldRoot := tree.Root()

	var cb metadata.CounterBlock
	cb.Increment(5)
	writeCounter(layout, backing, 17, &cb)
	tree.Update(17)

	if tree.Root() == oldRoot {
		t.Fatal("root unchanged after counter update")
	}
	if err := tree.Verify(17); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
	// Untouched counters still verify.
	if err := tree.Verify(0); err != nil {
		t.Fatalf("sibling verify: %v", err)
	}
}

func TestDetectsCounterTampering(t *testing.T) {
	tree, layout, backing, _ := newFixture(t, 1<<20)
	tree.Rebuild()
	addr := layout.CounterBlockAddr(3)
	backing[addr] ^= 0xFF // flip bits in the major counter
	err := tree.Verify(3)
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("tampering not detected: %v", err)
	}
}

func TestDetectsCounterReplay(t *testing.T) {
	// Replay attack: save a legally-produced old counter state and restore
	// it after an update. The tree must reject the stale value.
	tree, layout, backing, _ := newFixture(t, 1<<20)
	var cb metadata.CounterBlock
	writeCounter(layout, backing, 9, &cb)
	tree.Rebuild()

	// Snapshot the (legal) old counter bytes.
	old := make([]byte, CounterBlockBytes)
	backing.ReadRaw(layout.CounterBlockAddr(9), old)

	// Legitimate update.
	cb.Increment(0)
	writeCounter(layout, backing, 9, &cb)
	tree.Update(9)

	// Attacker replays the stale counter bytes.
	backing.WriteRaw(layout.CounterBlockAddr(9), old)
	if err := tree.Verify(9); !errors.Is(err, ErrVerify) {
		t.Fatalf("replay not detected: %v", err)
	}
}

func TestDetectsSubtreeReplay(t *testing.T) {
	// Stronger replay: the attacker snapshots the counter block AND every
	// tree node on its path, then restores all of them. Only the on-chip
	// root can catch this — and it must.
	tree, layout, backing, _ := newFixture(t, 1<<20)
	var cb metadata.CounterBlock
	writeCounter(layout, backing, 21, &cb)
	tree.Rebuild()

	path, _ := layout.BMTPathForCounter(21)
	type snap struct {
		addr memdef.Addr
		data []byte
	}
	var snaps []snap
	snaps = append(snaps, snap{layout.CounterBlockAddr(21), make([]byte, CounterBlockBytes)})
	for _, a := range path {
		snaps = append(snaps, snap{a, make([]byte, memdef.BlockSize)})
	}
	for i := range snaps {
		backing.ReadRaw(snaps[i].addr, snaps[i].data)
	}

	cb.Increment(1)
	writeCounter(layout, backing, 21, &cb)
	tree.Update(21)

	for i := range snaps {
		backing.WriteRaw(snaps[i].addr, snaps[i].data)
	}
	if err := tree.Verify(21); !errors.Is(err, ErrVerify) {
		t.Fatalf("subtree replay not detected: %v", err)
	}
}

func TestDetectsNodeTampering(t *testing.T) {
	tree, layout, backing, _ := newFixture(t, 1<<20)
	tree.Rebuild()
	// Corrupt an internal node hash slot on counter 40's path.
	path, slots := layout.BMTPathForCounter(40)
	backing[path[0]+memdef.Addr(slots[0]*metadata.HashSize)] ^= 1
	if err := tree.Verify(40); !errors.Is(err, ErrVerify) {
		t.Fatalf("node tampering not detected: %v", err)
	}
}

func TestVerifyBeforeRebuildFails(t *testing.T) {
	tree, _, _, _ := newFixture(t, 1<<20)
	if err := tree.Verify(0); !errors.Is(err, ErrVerify) {
		t.Fatal("verify before build must fail")
	}
}

func TestUpdateBeforeRebuildPanics(t *testing.T) {
	tree, _, _, _ := newFixture(t, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.Update(0)
}

func TestManyRandomUpdatesStayConsistent(t *testing.T) {
	tree, layout, backing, _ := newFixture(t, 1<<20)
	tree.Rebuild()
	rng := rand.New(rand.NewSource(99))
	counters := make([]metadata.CounterBlock, layout.NumCounterBlocks())
	for step := 0; step < 500; step++ {
		i := uint64(rng.Intn(int(layout.NumCounterBlocks())))
		counters[i].Increment(rng.Intn(metadata.MinorsPerCounterBlock))
		writeCounter(layout, backing, i, &counters[i])
		tree.Update(i)
		// Spot-check a random counter each step.
		j := uint64(rng.Intn(int(layout.NumCounterBlocks())))
		if err := tree.Verify(j); err != nil {
			t.Fatalf("step %d verify(%d): %v", step, j, err)
		}
	}
}

func TestRootsDifferAcrossPartitions(t *testing.T) {
	layout, err := metadata.NewLayout(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	eng := cryptoengine.New(cryptoengine.DeriveKeys(7))
	b1 := make(sliceBacking, layout.TotalBytes())
	b2 := make(sliceBacking, layout.TotalBytes())
	t1 := New(layout, eng, 1, b1)
	t2 := New(layout, eng, 2, b2)
	t1.Rebuild()
	t2.Rebuild()
	if t1.Root() == t2.Root() {
		t.Fatal("identical content in different partitions must yield different roots (partition binding)")
	}
}
