package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shmgpu/internal/memdef"
)

// The differential test pins the packed-tag cache to refCache, the layout
// it replaced. Both are driven with the same Read/Write/Fill/Probe/
// CleanInvalidate/FlushAll streams over the simulator's three cache
// geometries and must agree at every step on the outcome, the write-backs,
// the OnEvict calls and the statistics, and periodically on every way's
// tag, sectors and LRU stamp.

// geometries are the L1, L2 and metadata-cache configurations of
// gpu.DefaultConfig and secmem.DefaultTuning.
var geometries = []Config{
	{Name: "l1", SizeBytes: 64 << 10, Ways: 4, MSHRs: 64, MaxMergesPerMSHR: 16},
	{Name: "l2", SizeBytes: 128 << 10, Ways: 8, MSHRs: 192, MaxMergesPerMSHR: 16},
	{Name: "mdc", SizeBytes: 2048, Ways: 4, MSHRs: 256, MaxMergesPerMSHR: 16},
}

type evictCall struct {
	block memdef.Addr
	valid uint8
}

// diffPair drives a Cache and a refCache in lockstep.
type diffPair struct {
	c             *Cache
	r             *refCache
	cEvict, rEv   []evictCall
	outstanding   []memdef.Addr // sectors a Read reported MissNew for
	sectors, step int
	blocked       int // Reads that returned Blocked
}

func newDiffPair(cfg Config) *diffPair {
	p := &diffPair{c: New(cfg), r: newRef(cfg), sectors: 2 * cfg.SizeBytes / memdef.SectorSize}
	p.c.OnEvict = func(b memdef.Addr, v uint8) { p.cEvict = append(p.cEvict, evictCall{b, v}) }
	p.r.OnEvict = func(b memdef.Addr, v uint8) { p.rEv = append(p.rEv, evictCall{b, v}) }
	return p
}

// addr maps an index onto a sector of an address range twice the cache's
// size, so every set sees conflicting blocks.
func (p *diffPair) addr(idx int) memdef.Addr {
	return memdef.Addr(idx%p.sectors) * memdef.SectorSize
}

// apply runs one operation on both caches and reports the first
// disagreement. op selects the operation; idx picks its sector.
func (p *diffPair) apply(op uint8, idx int) error {
	p.step++
	a := p.addr(idx)
	var what string
	var got, want any
	switch op % 10 {
	case 0, 1, 2:
		what = fmt.Sprintf("Read(%#x)", uint64(a))
		o := p.c.Read(a)
		got, want = o, p.r.Read(a)
		switch o {
		case MissNew:
			p.outstanding = append(p.outstanding, a)
		case Blocked:
			p.blocked++
		}
	case 3, 4:
		what = fmt.Sprintf("Write(%#x)", uint64(a))
		o, wb := p.c.Write(a)
		ro, rwb := p.r.Write(a)
		got, want = []any{o, append([]Writeback(nil), wb...)}, []any{ro, append([]Writeback(nil), rwb...)}
	case 5, 6:
		// Fill an outstanding sector, or any sector when none is.
		if n := len(p.outstanding); n > 0 {
			i := idx % n
			a = p.outstanding[i]
			p.outstanding[i] = p.outstanding[n-1]
			p.outstanding = p.outstanding[:n-1]
		}
		what = fmt.Sprintf("Fill(%#x)", uint64(a))
		got, want = p.fill(a)
	case 7:
		what = fmt.Sprintf("Probe(%#x)", uint64(a))
		got, want = p.c.Probe(a), p.r.Probe(a)
	case 8:
		what = fmt.Sprintf("CleanInvalidate(%#x)", uint64(a))
		p.c.CleanInvalidate(a)
		p.r.CleanInvalidate(a)
	case 9:
		if idx%512 != 0 {
			return p.apply(0, idx) // keep flushes rare
		}
		// FlushAll requires a drained MSHR file: fill everything first.
		for _, s := range p.outstanding {
			if g, w := p.fill(s); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("step %d: draining Fill(%#x) = %v, reference %v", p.step, uint64(s), g, w)
			}
		}
		p.outstanding = p.outstanding[:0]
		what = "FlushAll"
		got, want = p.c.FlushAll(), p.r.FlushAll()
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("step %d: %s = %v, reference %v", p.step, what, got, want)
	}
	return p.compare(what, p.step%256 == 0)
}

func (p *diffPair) fill(a memdef.Addr) (got, want []any) {
	wb, n := p.c.Fill(a)
	rwb, rn := p.r.Fill(a)
	return []any{append([]Writeback(nil), wb...), n}, []any{append([]Writeback(nil), rwb...), rn}
}

// compare checks the state both caches expose after every step, and with
// deep set every way.
func (p *diffPair) compare(what string, deep bool) error {
	switch {
	case !reflect.DeepEqual(p.cEvict, p.rEv):
		return fmt.Errorf("step %d: %s evicted %v, reference %v", p.step, what, p.cEvict, p.rEv)
	case p.c.Stats != p.r.Stats:
		return fmt.Errorf("step %d: %s stats %+v, reference %+v", p.step, what, p.c.Stats, p.r.Stats)
	case p.c.MSHRsInUse() != p.r.MSHRsInUse() || p.c.MSHRFull() != p.r.MSHRFull():
		return fmt.Errorf("step %d: %s MSHRs in use %d, reference %d", p.step, what, p.c.MSHRsInUse(), p.r.MSHRsInUse())
	case p.c.lruClock != p.r.lruClock:
		return fmt.Errorf("step %d: %s LRU clock %d, reference %d", p.step, what, p.c.lruClock, p.r.lruClock)
	}
	p.cEvict, p.rEv = p.cEvict[:0], p.rEv[:0]
	if !deep {
		return nil
	}
	if p.c.DirtySectorCount() != p.r.DirtySectorCount() || p.c.ValidSectorCount() != p.r.ValidSectorCount() {
		return fmt.Errorf("step %d: %s sector counts dirty %d valid %d, reference %d %d", p.step, what,
			p.c.DirtySectorCount(), p.c.ValidSectorCount(), p.r.DirtySectorCount(), p.r.ValidSectorCount())
	}
	for i, rl := range p.r.lines {
		k, ln := p.c.keys[i], p.c.lines[i]
		if !rl.used {
			if k != 0 {
				return fmt.Errorf("step %d: way %d holds key %#x, reference way is free", p.step, i, k)
			}
			continue
		}
		if k != rl.tag+1 || ln.valid != rl.valid || ln.dirty != rl.dirty || ln.lru != rl.lru {
			return fmt.Errorf("step %d: way %d = key %#x %+v, reference %+v", p.step, i, k, ln, rl)
		}
	}
	return nil
}

// TestCacheMatchesReference runs seeded random streams over every
// geometry. A third of the operations read one hot sector, a new one
// every 64 steps, so its MSHR merges reach the merge cap (Blocked).
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range geometries {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p := newDiffPair(cfg)
				hot := 0
				for step := 0; step < 50000; step++ {
					if step%64 == 0 {
						hot = rng.Int()
					}
					op, idx := uint8(rng.Intn(10)), rng.Int()
					if rng.Intn(3) == 0 {
						op, idx = 0, hot
					}
					if err := p.apply(op, idx); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.compare("end", true); err != nil {
					t.Fatal(err)
				}
				if p.c.Stats.Evictions == 0 || p.c.Stats.Writebacks == 0 || p.c.Stats.MSHRMerges == 0 || p.blocked == 0 {
					t.Errorf("stream too tame: %+v, %d blocked", p.c.Stats, p.blocked)
				}
			})
		}
	}
}

// FuzzCacheOps is the differential test as a native fuzz target. The first
// byte picks the geometry; each following three bytes are one operation
// (op, then a 16-bit sector index).
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 5, 0, 1, 3, 0, 2})
	f.Add([]byte{1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 6, 0, 0, 9, 0, 0})
	f.Add([]byte{2, 3, 0, 7, 3, 0, 135, 3, 1, 7, 0, 0, 7, 8, 0, 7, 0, 0, 135})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := newDiffPair(geometries[int(data[0])%len(geometries)])
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			if err := p.apply(ops[0], int(ops[1])<<8|int(ops[2])); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.compare("end", true); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkCacheReadFill drives an L2-geometry cache with a fixed stream
// of sector reads over twice its capacity, filling every new miss at once:
// the hit, miss and eviction paths of an L2 bank without its timing.
func BenchmarkCacheReadFill(b *testing.B) {
	c := New(geometries[1])
	rng := rand.New(rand.NewSource(1))
	addrs := make([]memdef.Addr, 1<<14)
	for i := range addrs {
		addrs[i] = memdef.Addr(rng.Intn(2*geometries[1].SizeBytes/memdef.SectorSize)) * memdef.SectorSize
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(len(addrs)-1)]
		if c.Read(a) == MissNew {
			c.Fill(a)
		}
	}
}
