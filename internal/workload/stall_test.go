package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"shmgpu/internal/gpu"
	"shmgpu/internal/memdef"
)

var _ gpu.StallPredictor = (*program)(nil)

// TestStallsAgainLeavesStateUntouched drives a small grid the way the
// simulator does — SyncTick, then some warps call Next — and checks the
// horizon's bubble predicate between ticks: whenever StallsAgain reports
// true, the warp's Next at the coming tick returns a Stall bubble and
// leaves its issue count, its RNG draw count and every frontier lane
// untouched, even after other warps of the same tick issued first. The
// unsynced variant checks the same for warps driven standalone, where
// Next reads the live frontier, so the promise only lasts until some
// other warp issues: there the predicted warps go first.
func TestStallsAgainLeavesStateUntouched(t *testing.T) {
	for _, synced := range []bool{true, false} {
		synced := synced
		t.Run(fmt.Sprintf("synced=%v", synced), func(t *testing.T) {
			b := MustNew(Spec{
				BenchName: "pace",
				Buffers: []Buffer{
					{Name: "s", Bytes: 1 * mb, Space: memdef.SpaceGlobal, Pattern: Stream, ReadOnly: true, Weight: 1},
					{Name: "r", Bytes: 1 * mb, Space: memdef.SpaceGlobal, Pattern: Random, WriteFrac: 0.5, Weight: 1},
				},
				ComputePerMem:   4, // jitter draws from the RNG on every real issue
				MemInstsPerWarp: 40,
				FrontierWindow:  1,
				Seed:            3,
			})
			const sms, warps = 3, 4
			b.SetGrid(sms, warps)
			var progs []*program
			var draws []*drawCounter
			for sm := 0; sm < sms; sm++ {
				for w := 0; w < warps; w++ {
					p := b.NewWarp(0, sm, w).(*program)
					d := &drawCounter{src: rand.NewSource(int64(len(progs))).(rand.Source64)}
					p.rng = rand.New(d)
					progs = append(progs, p)
					draws = append(draws, d)
				}
			}
			rng := rand.New(rand.NewSource(11))
			predicted := 0
			for tick := 0; tick < 2000; tick++ {
				var stalls []int
				for i, p := range progs {
					if p.StallsAgain() {
						stalls = append(stalls, i)
					}
				}
				// The other warps issue: the slowest lane moves rarely so the
				// rest of the grid keeps running into the window.
				others := func() {
					for i, p := range progs {
						if p.lane == 0 && rng.Intn(8) != 0 || rng.Intn(2) == 0 || contains(stalls, i) {
							continue
						}
						p.Next()
					}
				}
				if synced {
					b.SyncTick()
					others()
				}
				for _, i := range stalls {
					p := progs[i]
					issued, drawn := p.issued, draws[i].n
					lanes := fmt.Sprint(b.frontier.lanes)
					_, mem, done := p.Next()
					if done || !mem.Stall {
						t.Fatalf("tick %d warp %d: StallsAgain but Next = (stall %v, done %v)", tick, i, mem.Stall, done)
					}
					if p.issued != issued || draws[i].n != drawn || fmt.Sprint(b.frontier.lanes) != lanes {
						t.Fatalf("tick %d warp %d: stalled Next changed state (issued %d->%d, draws %d->%d)",
							tick, i, issued, p.issued, drawn, draws[i].n)
					}
					predicted++
				}
				if !synced {
					others()
				}
			}
			if predicted < 500 {
				t.Fatalf("only %d predicted bubbles; the grid must pace", predicted)
			}
		})
	}
}

// drawCounter is a rand.Source64 that counts the values drawn from it.
type drawCounter struct {
	src rand.Source64
	n   uint64
}

func (d *drawCounter) Int63() int64    { d.n++; return d.src.Int63() }
func (d *drawCounter) Uint64() uint64  { d.n++; return d.src.Uint64() }
func (d *drawCounter) Seed(seed int64) { d.n = 0; d.src.Seed(seed) }

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
