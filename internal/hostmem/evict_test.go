package hostmem

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// The eviction microbenchmark pins the claim that victim selection is
// O(log n) in the frame count: a steady-state cyclic sweep over a working
// set twice the frame budget makes every access a fault+eviction (the LRU
// worst case), so per-fault cost is dominated by the victim scan. The old
// implementation walked every frame per fault; the lazy min-heap re-keys
// stale roots instead, so growing the frame count 64× must not grow
// per-fault cost anywhere near 64×.

const evictPageBytes = 4096

// newEvictTier builds a demand-only tier with `frames` device frames and
// a working set of 2×frames pages, warmed to a full frame budget so every
// subsequent sweep access evicts.
func newEvictTier(tb testing.TB, frames int) (*Tier, *uint64) {
	tb.Helper()
	tier, err := New(Config{
		PageBytes:         evictPageBytes,
		Frames:            frames,
		PCIeLatency:       1,
		PCIeBytesPerCycle: evictPageBytes,
		MetaCycles:        1,
		ThrashWindow:      1,
	}, uint64(2*frames)*evictPageBytes)
	if err != nil {
		tb.Fatal(err)
	}
	cycle := new(uint64)
	for p := 0; p < frames; p++ {
		faultIn(tier, cycle, p)
	}
	return tier, cycle
}

// faultIn drives one page to residency: Access until Admit, ticking the
// tier forward a cycle per retry (pause-and-replay in miniature).
func faultIn(tier *Tier, cycle *uint64, page int) {
	addr := uint64(page) * evictPageBytes
	for tier.Access(addr, false, *cycle) != Admit {
		*cycle++
		tier.Tick(*cycle)
	}
}

// sweep faults `n` pages of the cyclic worst-case pattern starting at
// *next, each one a miss that evicts the current LRU victim.
func sweep(tier *Tier, cycle *uint64, next *int, n int) {
	span := tier.NumPages()
	for i := 0; i < n; i++ {
		faultIn(tier, cycle, *next)
		*next = (*next + 1) % span
	}
}

// perFaultNs measures the steady-state cost of one fault+eviction at the
// given frame count, taking the best of `reps` timed sweeps so scheduler
// noise inflates neither side of the scaling comparison. allocs is the
// heap allocation count of one further sweep, from testing.AllocsPerRun
// (which pins GOMAXPROCS to 1, so runtime thread starts cannot land in
// the count).
func perFaultNs(tb testing.TB, frames, faults, reps int) (ns int64, allocs float64) {
	tb.Helper()
	tier, cycle := newEvictTier(tb, frames)
	next := frames // first non-resident page
	run := func() { sweep(tier, cycle, &next, faults) }
	best := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		start := time.Now()
		run()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best.Nanoseconds() / int64(faults), testing.AllocsPerRun(1, run)
}

// TestEvictVictimScanSublinear is the scaling pin: 64× more frames may
// cost at most 24× more per fault. The heap's log₂ growth over that
// range is 16/10 ≈ 1.6×, but the larger page/heap arrays also fall out
// of cache, so real growth is memory-bound (≈5–20× on small machines) —
// the bound leaves room for that while still catching the retired
// O(frames) scan, which walked every frame per eviction and would land
// orders of magnitude beyond it.
func TestEvictVictimScanSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timed microbenchmark; skipped in -short")
	}
	small, _ := perFaultNs(t, 1<<10, 2000, 3)
	large, allocs := perFaultNs(t, 1<<16, 2000, 3)
	if small <= 0 {
		t.Fatalf("small-frame measurement degenerate: %d ns/fault", small)
	}
	t.Logf("per-fault cost: frames=1024 %d ns, frames=65536 %d ns (%.1f×)",
		small, large, float64(large)/float64(small))
	if large > 24*small {
		t.Errorf("per-fault cost grew %d -> %d ns (%.1f×) for 64× frames; victim scan is not sub-linear",
			small, large, float64(large)/float64(small))
	}
	if allocs != 0 {
		t.Errorf("steady-state fault+eviction allocates %g times per sweep, want 0", allocs)
	}
}

// BenchmarkEvictFault is the benchstat-friendly rendering of the same
// steady state, one op = one fault+eviction.
func BenchmarkEvictFault(b *testing.B) {
	for _, frames := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			tier, cycle := newEvictTier(b, frames)
			next := frames
			b.ReportAllocs()
			b.ResetTimer()
			sweep(tier, cycle, &next, b.N)
		})
	}
}
