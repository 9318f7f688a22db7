package hostmem

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBlocked pins the fast-forward predicate case by case: Blocked is
// true exactly when Access would stall and change nothing but the replay
// counter.
func TestBlocked(t *testing.T) {
	cases := []struct {
		name string
		// setup builds the tier state and returns the probed address.
		setup func(t *testing.T) (*Tier, uint64)
		want  bool
	}{
		{"migrating page", func(t *testing.T) (*Tier, uint64) {
			tr := tier(t, Config{})
			tr.Access(3*64, false, 0) // demand fault: page 3 migrating
			return tr, 3 * 64
		}, true},
		{"migrating page still pfInflight", func(t *testing.T) (*Tier, uint64) {
			tr := tier(t, Config{Prefetch: PrefetchStream})
			tr.Classify = func(int) bool { return true }
			tr.Access(2*64, false, 0) // fault on 2 prefetches 3
			return tr, 3 * 64
		}, false},
		{"host page behind a full ring", func(t *testing.T) (*Tier, uint64) {
			tr := tier(t, Config{MaxInflight: 1})
			tr.Access(2*64, false, 0) // fills the one-slot ring
			return tr, 3 * 64
		}, true},
		{"host page with every frame reserved", func(t *testing.T) (*Tier, uint64) {
			tr := tier(t, Config{Frames: 1})
			tr.Access(1*64, false, 0) // evicts page 0; the only frame is in flight
			return tr, 2 * 64
		}, true},
		{"host page with a free ring", func(t *testing.T) (*Tier, uint64) {
			return tier(t, Config{}), 3 * 64
		}, false},
		{"resident page", func(t *testing.T) (*Tier, uint64) {
			return tier(t, Config{}), 0
		}, false},
		{"out-of-range page", func(t *testing.T) (*Tier, uint64) {
			return tier(t, Config{}), 10 * 64
		}, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tr, addr := c.setup(t)
			if got := tr.Blocked(addr); got != c.want {
				t.Fatalf("Blocked(%d) = %v, want %v", addr, got, c.want)
			}
		})
	}

	// The pfInflight page stops being exempt once its first stall has
	// settled the late-prefetch accounting.
	tr := tier(t, Config{Prefetch: PrefetchStream})
	tr.Classify = func(int) bool { return true }
	tr.Access(2*64, false, 0)
	if got := tr.Access(3*64, false, 1); got != Stall || tr.Stats().PrefLate != 1 {
		t.Fatalf("first touch of the in-flight prefetch = %v, PrefLate %d; want Stall, 1", got, tr.Stats().PrefLate)
	}
	if !tr.Blocked(3 * 64) {
		t.Error("Blocked = false after the late prefetch was counted, want true")
	}
}

// tierState renders everything Access could change: every field of the
// tier, victim heap included, with the replay counter set to replays. The
// hooks are left out; the test checks them by call.
func tierState(tr *Tier, replays uint64) string {
	v := *tr
	v.stats.Replays = replays
	v.OnFaultIn, v.OnEvict, v.OnPrefetch, v.Classify = nil, nil, nil, nil
	return fmt.Sprintf("%+v", v)
}

// TestBlockedAccessOnlyCountsReplay is the predicate's property check over
// randomized tier states: whenever Blocked(addr) is true, Access(addr)
// returns Stall, calls no hook, and leaves the tier exactly as it was
// apart from Stats.Replays, which grows by one.
func TestBlockedAccessOnlyCountsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefetches := []Prefetch{PrefetchNone, PrefetchStride, PrefetchStream}
	checked := 0
	for trial := 0; trial < 200; trial++ {
		pages := 2 + rng.Intn(7)
		cfg := Config{
			PageBytes:         64,
			Frames:            1 + rng.Intn(pages),
			PCIeLatency:       uint64(1 + rng.Intn(20)),
			PCIeBytesPerCycle: 16,
			MetaCycles:        uint64(1 + rng.Intn(8)),
			MaxInflight:       1 + rng.Intn(3),
			Prefetch:          prefetches[rng.Intn(len(prefetches))],
			PrefetchDegree:    1 + rng.Intn(3),
			BatchPages:        1 + rng.Intn(3),
		}
		tr, err := New(cfg, uint64(pages)*64)
		if err != nil {
			t.Fatal(err)
		}
		inBlockedAccess := false
		hook := func() {
			if inBlockedAccess {
				t.Fatalf("trial %d: a blocked Access called a tier hook", trial)
			}
		}
		tr.OnFaultIn = func(int, uint64) { hook() }
		tr.OnEvict = func(int, bool, bool) { hook() }
		tr.OnPrefetch = func(int, int) { hook() }
		tr.Classify = func(p int) bool { hook(); return p%2 == 0 }

		now := uint64(0)
		for step := 0; step < 60; step++ {
			now += uint64(rng.Intn(6))
			tr.Tick(now)
			// Probe every page, plus one past the working set.
			for p := 0; p <= pages; p++ {
				addr := uint64(p)*64 + uint64(rng.Intn(64))
				if !tr.Blocked(addr) {
					continue
				}
				checked++
				st := tr.Stats()
				before := tierState(tr, st.Replays+1)
				inBlockedAccess = true
				got := tr.Access(addr, rng.Intn(2) == 0, now)
				inBlockedAccess = false
				if got != Stall {
					t.Fatalf("trial %d step %d: Blocked(%d) but Access = %v, want Stall", trial, step, addr, got)
				}
				want := st
				want.Replays++
				if tr.Stats() != want {
					t.Fatalf("trial %d step %d: stats %+v, want %+v", trial, step, tr.Stats(), want)
				}
				if tierState(tr, tr.Stats().Replays) != before {
					t.Fatalf("trial %d step %d: blocked Access(%d) changed tier state", trial, step, addr)
				}
			}
			// Then move the tier on with one ordinary access.
			tr.Access(uint64(rng.Intn(pages+1))*64, rng.Intn(3) == 0, now)
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d blocked probes across all trials; the generator must reach blocked states", checked)
	}
}
