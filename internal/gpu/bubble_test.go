package gpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// stallProgram is a warp program stuck behind the pacing frontier: every
// Next is a Stall bubble, and it says so.
type stallProgram struct{}

func (stallProgram) Next() (int, MemInst, bool) { return 0, MemInst{Stall: true}, false }
func (stallProgram) StallsAgain() bool          { return true }

// bubbleSM builds one SM whose warps are a random mix of bubble warps and
// warps that cannot become eligible before until: finished, capped on
// in-flight sectors, or an ordinary warp waking at or after until.
func bubbleSM(rng *rand.Rand, warps int, now, until uint64) *SM {
	cfg := DefaultConfig()
	cfg.WarpsPerSM = warps
	s := newSM(0, &cfg)
	s.warps = make([]warpState, warps)
	for i := range s.warps {
		w := newWarpState(stallProgram{})
		w.haveMem = true
		w.pendingMem = MemInst{Stall: true}
		w.readyAt = now - 20 + uint64(rng.Intn(37))
		switch rng.Intn(8) {
		case 0:
			w.done = true
		case 1:
			w.outstanding = cfg.MaxWarpInflightSectors
		case 2:
			w.pendingMem = mkRead(0)
			w.readyAt = until + uint64(rng.Intn(3))
		}
		s.warps[i] = w
	}
	s.lastWarp = rng.Intn(warps)
	return s
}

// TestReplayBubblesMatchesIssueTick checks the bulk bubble replay against
// the scheduler itself: after warpNextEvent lists an SM's bubble warps,
// replayBubbles over a skipped window must leave every warp's readyAt and
// the SM's lastWarp exactly where calling issueTick at each skipped cycle
// leaves them. Windows run from a few cycles to thousands, so the
// periodic jump is taken, and warp counts fall below, at and above the
// 16-cycle back-off.
func TestReplayBubblesMatchesIssueTick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		warps := []int{1, 3, 8, 15, 16, 17, 24, 40}[trial%8]
		now := uint64(1000)
		until := now + 2 + uint64(rng.Intn(5000))
		seed := rng.Int63()
		fast := bubbleSM(rand.New(rand.NewSource(seed)), warps, now, until)
		ref := bubbleSM(rand.New(rand.NewSource(seed)), warps, now, until)

		if next := fast.warpNextEvent(now); next < until {
			t.Fatalf("trial %d: warpNextEvent = %d, want >= %d (only bubble warps wake before until)", trial, next, until)
		}
		fast.replayBubbles(now, until)
		for c := now + 1; c < until; c++ {
			ref.issueTick(c)
		}

		got := fmt.Sprint(fast.lastWarp, readyAts(fast))
		want := fmt.Sprint(ref.lastWarp, readyAts(ref))
		if got != want {
			t.Fatalf("trial %d (%d warps, window %d): replay left lastWarp/readyAt %s, issueTick %s",
				trial, warps, until-now-1, got, want)
		}
	}
}

func readyAts(s *SM) []uint64 {
	out := make([]uint64, len(s.warps))
	for i := range s.warps {
		out[i] = s.warps[i].readyAt
	}
	return out
}
