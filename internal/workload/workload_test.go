package workload

import (
	"slices"
	"testing"

	"shmgpu/internal/gpu"
	"shmgpu/internal/memdef"
)

func TestAllBenchmarksConstruct(t *testing.T) {
	for name, ctor := range Registry() {
		b := ctor()
		if b.Name() != name {
			t.Errorf("%s: Name() = %q", name, b.Name())
		}
		if b.Kernels() < 1 {
			t.Errorf("%s: no kernels", name)
		}
		if b.Footprint() == 0 {
			t.Errorf("%s: zero footprint", name)
		}
		if b.Footprint() > 64<<20 {
			t.Errorf("%s: footprint %d too large for fast simulation", name, b.Footprint())
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("have %d benchmarks, want 16 (Table VII)", len(names))
	}
	mi := MemoryIntensive()
	if len(mi) != 15 {
		t.Fatalf("memory-intensive set has %d, want 15", len(mi))
	}
	for _, n := range mi {
		if n == "b+tree" {
			t.Error("b+tree must be excluded from the memory-intensive set")
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("fdtd2d"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{BenchName: "", Buffers: []Buffer{{Name: "b", Bytes: 1, Weight: 1}}, MemInstsPerWarp: 1},
		{BenchName: "x", MemInstsPerWarp: 1},
		{BenchName: "x", Buffers: []Buffer{{Name: "b", Bytes: 0, Weight: 1}}, MemInstsPerWarp: 1},
		{BenchName: "x", Buffers: []Buffer{{Name: "b", Bytes: 1, Weight: 0}}, MemInstsPerWarp: 1},
		{BenchName: "x", Buffers: []Buffer{{Name: "b", Bytes: 1, Weight: 1}}, MemInstsPerWarp: 0},
	}
	for i, s := range bad {
		if _, err := New(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestBuffersRegionAlignedAndDisjoint(t *testing.T) {
	for name, ctor := range Registry() {
		b := ctor()
		var prevEnd memdef.Addr
		for i, pb := range b.buffers {
			if uint64(pb.base)%memdef.RegionSize != 0 {
				t.Errorf("%s buffer %d base %#x not region-aligned", name, i, uint64(pb.base))
			}
			if pb.base < prevEnd {
				t.Errorf("%s buffer %d overlaps previous", name, i)
			}
			prevEnd = pb.base + memdef.Addr(pb.Bytes)
		}
	}
}

func TestWarpDeterminism(t *testing.T) {
	b1 := FDTD2D()
	b2 := FDTD2D()
	b1.SetGrid(4, 8)
	b2.SetGrid(4, 8)
	p1 := b1.NewWarp(0, 2, 3)
	p2 := b2.NewWarp(0, 2, 3)
	for i := 0; i < 200; i++ {
		c1, m1, d1 := p1.Next()
		c2, m2, d2 := p2.Next()
		if c1 != c2 || d1 != d2 || len(m1.Sectors) != len(m2.Sectors) {
			t.Fatalf("divergence at %d", i)
		}
		for j := range m1.Sectors {
			if m1.Sectors[j] != m2.Sectors[j] {
				t.Fatalf("address divergence at %d.%d", i, j)
			}
		}
		if d1 {
			break
		}
	}
}

// TestRecycledProgramsMatchFresh pins program recycling: on every built-in
// workload, each kernel after the first runs on the programs the previous
// kernel left behind, whether that kernel ran to the end or was abandoned
// halfway, and each yields the same instruction stream as a fresh Bench's
// program for the same (kernel, sm, warp). Grids tick the way the
// simulator drives them: SyncTick, then each warp's Next.
func TestRecycledProgramsMatchFresh(t *testing.T) {
	const sms, warps = 2, 2
	launch := func(b *Bench, k int) []*program {
		var progs []*program
		for sm := 0; sm < sms; sm++ {
			for w := 0; w < warps; w++ {
				progs = append(progs, b.NewWarp(k, sm, w).(*program))
			}
		}
		return progs
	}
	for name, ctor := range Registry() {
		spec := ctor().Spec()
		for k := 1; k < spec.KernelCount; k++ {
			// -1 runs the previous kernel to the end.
			for _, prevTicks := range []int{-1, spec.MemInstsPerWarp / 2} {
				b, fresh := ctor(), ctor()
				b.SetGrid(sms, warps)
				fresh.SetGrid(sms, warps)
				prev := launch(b, k-1)
				for tick, done := 0, false; !done && tick != prevTicks; tick++ {
					b.SyncTick()
					done = true
					for _, p := range prev {
						_, _, d := p.Next()
						done = done && d
					}
				}
				got, want := launch(b, k), launch(fresh, k)
				for i := range got {
					if got[i] != prev[i] {
						t.Fatalf("%s kernel %d warp %d: a new program, want the previous kernel's recycled", name, k, i)
					}
				}
				for tick, done := 0, false; !done; tick++ {
					if tick > 4*spec.MemInstsPerWarp {
						t.Fatalf("%s kernel %d: warps unfinished after %d ticks", name, k, tick)
					}
					b.SyncTick()
					fresh.SyncTick()
					done = true
					for i := range got {
						c1, m1, d1 := got[i].Next()
						c2, m2, d2 := want[i].Next()
						if c1 != c2 || d1 != d2 || m1.Write != m2.Write || m1.Space != m2.Space ||
							m1.Stall != m2.Stall || !slices.Equal(m1.Sectors, m2.Sectors) {
							t.Fatalf("%s kernel %d (previous kernel run %d ticks) warp %d tick %d: recycled (%d, %+v, %v), fresh (%d, %+v, %v)",
								name, k, prevTicks, i, tick, c1, m1, d1, c2, m2, d2)
						}
						done = done && d1
					}
				}
			}
		}
	}
}

func TestWarpsTerminate(t *testing.T) {
	for name, ctor := range Registry() {
		b := ctor()
		b.SetGrid(2, 2)
		p := b.NewWarp(0, 0, 0)
		steps := 0
		for {
			_, _, done := p.Next()
			if done {
				break
			}
			steps++
			if steps > b.Spec().MemInstsPerWarp+1 {
				t.Fatalf("%s: warp did not terminate", name)
			}
		}
	}
}

func TestAddressesStayInBuffers(t *testing.T) {
	for name, ctor := range Registry() {
		b := ctor()
		b.SetGrid(4, 8)
		p := b.NewWarp(0, 1, 1)
		for {
			_, mem, done := p.Next()
			if done {
				break
			}
			for _, a := range mem.Sectors {
				in := false
				for _, pb := range b.buffers {
					if a >= pb.base && a < pb.base+memdef.Addr(pb.Bytes) {
						in = true
						// The space of the instruction must match the
						// buffer it targets.
						if mem.Space != pb.Space {
							t.Fatalf("%s: inst space %v for buffer %q space %v", name, mem.Space, pb.Name, pb.Space)
						}
						break
					}
				}
				if !in {
					t.Fatalf("%s: address %#x outside all buffers", name, uint64(a))
				}
			}
		}
	}
}

func TestReadOnlyBuffersNeverWritten(t *testing.T) {
	for name, ctor := range Registry() {
		b := ctor()
		b.SetGrid(4, 4)
		for w := 0; w < 4; w++ {
			p := b.NewWarp(0, 0, w)
			for {
				_, mem, done := p.Next()
				if done {
					break
				}
				if !mem.Write {
					continue
				}
				for _, a := range mem.Sectors {
					for _, pb := range b.buffers {
						if a >= pb.base && a < pb.base+memdef.Addr(pb.Bytes) && pb.ReadOnly {
							t.Fatalf("%s: write to read-only buffer %q", name, pb.Name)
						}
					}
				}
			}
		}
	}
}

func TestSetupTruths(t *testing.T) {
	b := FDTD2D()
	setup := b.Setup(0)
	if len(setup.CopyRanges) == 0 {
		t.Fatal("no host copies at context init")
	}
	if len(setup.ReadOnlyTruth) == 0 {
		t.Fatal("no read-only ground truth")
	}
	if len(setup.StreamTruths) != len(b.buffers) {
		t.Fatalf("stream truths = %d, want %d", len(setup.StreamTruths), len(b.buffers))
	}
	if !setup.UseResetAPI {
		t.Error("fdtd2d should use the reset API")
	}
	// Later kernels re-copy inputs only when RewriteInputs.
	s1 := b.Setup(1)
	if len(s1.CopyRanges) == 0 {
		t.Error("fdtd2d rewrites inputs; kernel 1 should have copies")
	}
	atax := Atax()
	if got := atax.Setup(1); len(got.CopyRanges) != 0 {
		t.Error("atax does not rewrite inputs; kernel 1 should have no copies")
	}
}

func TestStreamCoverageIsComplete(t *testing.T) {
	// All warps together must touch every block of a streamed buffer
	// (ground truth behind the streaming detector's accuracy).
	spec := Spec{
		BenchName: "cover",
		Buffers: []Buffer{
			{Name: "buf", Bytes: 1 * mb, Space: memdef.SpaceGlobal, Pattern: Stream, ReadOnly: true, Weight: 1},
		},
		ComputePerMem:   1,
		MemInstsPerWarp: 4096,
		Seed:            1,
	}
	b := MustNew(spec)
	b.SetGrid(4, 8)
	touched := map[memdef.Addr]bool{}
	for sm := 0; sm < 4; sm++ {
		for w := 0; w < 8; w++ {
			p := b.NewWarp(0, sm, w)
			for {
				_, mem, done := p.Next()
				if done {
					break
				}
				for _, a := range mem.Sectors {
					touched[memdef.BlockAddr(a)] = true
				}
			}
		}
	}
	blocks := int(spec.Buffers[0].Bytes / memdef.BlockSize)
	if len(touched) < blocks {
		t.Fatalf("stream covered %d/%d blocks", len(touched), blocks)
	}
}

func TestBenchImplementsInterfaces(t *testing.T) {
	var _ gpu.Workload = (*Bench)(nil)
	var _ gpu.GridAware = (*Bench)(nil)
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{Stream: "stream", Random: "random", Stencil: "stencil", Gather: "gather"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
	if !Stream.Streaming() || !Stencil.Streaming() || Random.Streaming() || Gather.Streaming() {
		t.Error("Streaming() classification wrong")
	}
}

func TestScheduleMatchesWeights(t *testing.T) {
	// The deterministic buffer schedule must realize each buffer's weight
	// within ~2% over its period.
	b := FDTD2D()
	counts := make(map[int]int)
	for _, bi := range b.schedule {
		counts[bi]++
	}
	var totalW float64
	for _, pb := range b.buffers {
		totalW += pb.Weight
	}
	period := float64(len(b.schedule))
	for i, pb := range b.buffers {
		want := pb.Weight / totalW
		got := float64(counts[i]) / period
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("buffer %q schedule share %.3f, want %.3f", pb.Name, got, want)
		}
	}
}

func TestWriteSlotsMatchWriteFrac(t *testing.T) {
	b := LBM() // dst buffer has WriteFrac 0.96
	var dstIdx = -1
	for i, pb := range b.buffers {
		if pb.Name == "dst" {
			dstIdx = i
		}
	}
	if dstIdx < 0 {
		t.Fatal("dst buffer missing")
	}
	occ, writes := 0, 0
	for s, bi := range b.schedule {
		if bi == dstIdx {
			occ++
			if b.writeSlot[s] {
				writes++
			}
		}
	}
	got := float64(writes) / float64(occ)
	if got < 0.90 || got > 1.0 {
		t.Errorf("dst write fraction in schedule = %.3f, want ~0.96", got)
	}
}

func TestFrontierStateOrdering(t *testing.T) {
	f := newFrontierState(10, 2)
	f.register(0)
	f.register(1)
	f.syncTick()
	if f.Min() != 0 {
		t.Fatalf("initial min = %d", f.Min())
	}
	f.advance(0, 0) // lane 0's warp to step 1
	f.syncTick()
	if f.Min() != 0 {
		t.Fatalf("min moved early: %d", f.Min())
	}
	f.advance(1, 0) // lane 1's warp to step 1
	f.syncTick()
	if f.Min() != 1 {
		t.Fatalf("min = %d, want 1", f.Min())
	}
}

func TestFrontierMinIsFrozenUntilSync(t *testing.T) {
	// Advances after a syncTick must not be visible to Min() until the
	// next syncTick: warps pace against a per-tick snapshot, which is what
	// makes pacing independent of same-tick execution order.
	f := newFrontierState(10, 1)
	f.register(0)
	f.syncTick()
	f.advance(0, 0)
	if f.Min() != 0 {
		t.Fatalf("mid-tick advance leaked into Min: %d", f.Min())
	}
	f.syncTick()
	if f.Min() != 1 {
		t.Fatalf("min after sync = %d, want 1", f.Min())
	}
}

func TestFrontierPacingBoundsSpread(t *testing.T) {
	// Drive two warps; the fast one must stall once it is FrontierWindow
	// ahead of the slow one.
	spec := Spec{
		BenchName: "pace",
		Buffers: []Buffer{
			{Name: "b", Bytes: 1 * mb, Space: memdef.SpaceGlobal, Pattern: Stream, ReadOnly: true, Weight: 1},
		},
		ComputePerMem:   1,
		MemInstsPerWarp: 100,
		FrontierWindow:  2,
		Seed:            1,
	}
	b := MustNew(spec)
	b.SetGrid(1, 2)
	fast := b.NewWarp(0, 0, 0)
	_ = b.NewWarp(0, 0, 1) // slow warp never advances
	stalls, real := 0, 0
	for i := 0; i < 20; i++ {
		_, mem, done := fast.Next()
		if done {
			break
		}
		if mem.Stall {
			stalls++
		} else {
			real++
		}
	}
	if real > spec.FrontierWindow+1 {
		t.Errorf("fast warp issued %d real instructions past a stuck peer (window %d)", real, spec.FrontierWindow)
	}
	if stalls == 0 {
		t.Error("no stall bubbles emitted")
	}
}
