package workload

import (
	"runtime"
	"testing"
)

// mallocs returns the heap allocations f performs, counted exactly. It
// runs f once, without a warm-up call, on one P.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWarpNextAllocationFree pins the allocation-free generator claim on
// every built-in workload and every kernel: once a warp program exists,
// Next fills its preallocated sector scratch and allocates nothing, on any
// pattern the workload's schedule reaches. A small grid ticks the way the
// simulator does (SyncTick, then each warp's Next) through the whole
// instruction stream; mallocs pins GOMAXPROCS to 1, so only the
// generator's own allocations can land in the count.
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
			// The first tick warms up; the measured ticks run every warp
			// to the end of its stream.
			n := b.spec.MemInstsPerWarp
			tick()
			if allocs := mallocs(func() {
				for i := 1; i < n; i++ {
					tick()
				}
			}); allocs != 0 {
				t.Errorf("%s kernel %d: %d allocations over %d ticks of %d warps, want 0", name, k, allocs, n-1, len(progs))
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
		// The first launch builds the programs; every measured launch is
		// of a later kernel.
		launch()
		if allocs := mallocs(func() {
			for i := 0; i < 10; i++ {
				launch()
			}
		}); allocs != 0 {
			t.Errorf("%s: %d allocations over 10 later-kernel launches of %d warps, want 0", name, allocs, sms*warps)
		}
	}
}
