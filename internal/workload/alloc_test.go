package workload

import "testing"

// TestWarpNextAllocationFree pins the allocation-free generator claim on
// every built-in workload and every kernel: once a warp program exists,
// Next fills its preallocated sector scratch and allocates nothing, on any
// pattern the workload's schedule reaches. A small grid ticks the way the
// simulator does (SyncTick, then each warp's Next) through the whole
// instruction stream; testing.AllocsPerRun pins GOMAXPROCS to 1, so only
// the generator's own allocations can land in the count.
func TestWarpNextAllocationFree(t *testing.T) {
	const sms, warps = 2, 2
	for _, name := range Names() {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b.SetGrid(sms, warps)
		for k := 0; k < b.Kernels(); k++ {
			var progs []*program
			for sm := 0; sm < sms; sm++ {
				for w := 0; w < warps; w++ {
					progs = append(progs, b.NewWarp(k, sm, w).(*program))
				}
			}
			tick := func() {
				b.SyncTick()
				for _, p := range progs {
					p.Next()
				}
			}
			// AllocsPerRun's own warm-up call is the first tick; the
			// measured ticks run every warp to the end of its stream.
			n := b.spec.MemInstsPerWarp
			if allocs := testing.AllocsPerRun(n-1, tick); allocs != 0 {
				t.Errorf("%s kernel %d: %g allocations per tick of %d warps, want 0", name, k, allocs, len(progs))
			}
			for i, p := range progs {
				if p.issued != n {
					t.Fatalf("%s kernel %d warp %d: issued %d of %d memory instructions; the measurement missed part of the stream", name, k, i, p.issued, n)
				}
			}
		}
	}
}

// TestNewWarpAllocationFree pins program recycling on every built-in
// workload: once the grid's programs exist, building a later kernel's
// warps resets and reseeds them in place and allocates nothing.
func TestNewWarpAllocationFree(t *testing.T) {
	const sms, warps = 2, 2
	for _, name := range Names() {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b.SetGrid(sms, warps)
		kernel := 0
		launch := func() {
			for sm := 0; sm < sms; sm++ {
				for w := 0; w < warps; w++ {
					b.NewWarp(kernel, sm, w)
				}
			}
			kernel++
		}
		// AllocsPerRun's warm-up call builds the first kernel's programs;
		// every measured call launches a later kernel.
		if allocs := testing.AllocsPerRun(10, launch); allocs != 0 {
			t.Errorf("%s: %g allocations per later-kernel launch of %d warps, want 0", name, allocs, sms*warps)
		}
	}
}
