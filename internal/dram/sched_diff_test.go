package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/stats"
)

// The differential test pins the per-bank scheduler to the one it
// replaced: refChannel below is the earlier channel, which rescanned the
// whole arrival-ordered queue for every pick and kept completions in a
// binary min-heap. Both are driven with the same seeded enqueue/tick
// streams and must agree at every step on what completes (token and
// cycle), on NextEvent, and on every statistic.

type refPending struct {
	Req
	arrival uint64
	bank    int
	row     uint64
}

// refHeap is a binary min-heap on completion cycle with container/heap's
// sift order.
type refHeap []completion

func (h refHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || h[j].cycle >= h[i].cycle {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h refHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].cycle < h[j1].cycle {
			j = j2
		}
		if h[j].cycle >= h[i].cycle {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h *refHeap) push(c completion) {
	*h = append(*h, c)
	h.up(len(*h) - 1)
}

func (h *refHeap) pop() completion {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	c := old[n]
	*h = old[:n]
	return c
}

type refBank struct {
	openRow          uint64
	hasRow           bool
	freeAt           uint64
	rowHits, rowMiss uint64
}

type refChannel struct {
	cfg       Config
	queue     []refPending
	banks     []refBank
	busFreeFP uint64
	busyFP    uint64
	completed refHeap
	traffic   stats.Traffic
}

func newRefChannel(cfg Config) *refChannel {
	return &refChannel{cfg: cfg, banks: make([]refBank, cfg.Banks)}
}

func (ch *refChannel) enqueue(r Req, now uint64) bool {
	if len(ch.queue) >= ch.cfg.QueueDepth {
		return false
	}
	slice := uint64(r.Local) / memdef.PartitionStride
	b := int(slice % uint64(ch.cfg.Banks))
	row := (slice / uint64(ch.cfg.Banks)) / uint64(ch.cfg.RowBytes/memdef.PartitionStride)
	ch.queue = append(ch.queue, refPending{Req: r, arrival: now, bank: b, row: row})
	return true
}

func (ch *refChannel) pickNext(now uint64) int {
	bestHit, bestAny := -1, -1
	for i := range ch.queue {
		p := &ch.queue[i]
		bk := &ch.banks[p.bank]
		if bk.freeAt > now {
			continue
		}
		if bk.hasRow && bk.openRow == p.row {
			if bestHit < 0 || p.arrival < ch.queue[bestHit].arrival {
				bestHit = i
			}
		}
		if bestAny < 0 || p.arrival < ch.queue[bestAny].arrival {
			bestAny = i
		}
	}
	if bestHit >= 0 {
		return bestHit
	}
	return bestAny
}

func (ch *refChannel) tick(now uint64) []completion {
	for len(ch.queue) > 0 {
		idx := ch.pickNext(now)
		if idx < 0 {
			break
		}
		p := ch.queue[idx]
		bk := &ch.banks[p.bank]
		var rowLat uint64
		if bk.hasRow && bk.openRow == p.row {
			rowLat = ch.cfg.CASCycles
			bk.rowHits++
		} else {
			rowLat = ch.cfg.CASCycles + ch.cfg.RowCycles
			bk.freeAt = now + ch.cfg.RowCycles
			bk.rowMiss++
		}
		bk.openRow = p.row
		bk.hasRow = true
		transferFP := uint64(memdef.SectorSize) * 256 * 256 / ch.cfg.BytesPerCycleFP
		startFP := (now + rowLat) * 256
		if ch.busFreeFP > startFP {
			startFP = ch.busFreeFP
		}
		ch.busFreeFP = startFP + transferFP
		ch.busyFP += transferFP
		ch.completed.push(completion{req: p.Req, cycle: (startFP + transferFP + 255) / 256})
		ch.queue = append(ch.queue[:idx], ch.queue[idx+1:]...)
		if p.Kind == memdef.Read {
			ch.traffic.AddRead(p.Class, memdef.SectorSize)
		} else {
			ch.traffic.AddWrite(p.Class, memdef.SectorSize)
		}
	}
	var done []completion
	for len(ch.completed) > 0 && ch.completed[0].cycle <= now {
		done = append(done, ch.completed.pop())
	}
	return done
}

func (ch *refChannel) nextEvent(now uint64) uint64 {
	next := ^uint64(0)
	for i := range ch.queue {
		if fa := ch.banks[ch.queue[i].bank].freeAt; fa < next {
			next = fa
		}
	}
	if len(ch.completed) > 0 && ch.completed[0].cycle < next {
		next = ch.completed[0].cycle
	}
	if next <= now {
		return now + 1
	}
	return next
}

func (ch *refChannel) rowHitRate() float64 {
	var hits, total uint64
	for i := range ch.banks {
		hits += ch.banks[i].rowHits
		total += ch.banks[i].rowHits + ch.banks[i].rowMiss
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func (ch *refChannel) busUtilization(now uint64) float64 {
	if now == 0 {
		return 0
	}
	return float64(ch.busyFP) / float64(now*256)
}

// addrGen draws partition-local sector addresses from a few hot rows per
// bank, so streams mix row hits with row misses and bank conflicts.
type addrGen struct {
	rng          *rand.Rand
	banks        int
	slicesPerRow int
}

func (g addrGen) next() memdef.Addr {
	b := g.rng.Intn(g.banks)
	row := g.rng.Intn(3)
	if g.rng.Intn(8) == 0 {
		row = g.rng.Intn(1 << 12)
	}
	slice := (row*g.slicesPerRow+g.rng.Intn(g.slicesPerRow))*g.banks + b
	sector := g.rng.Intn(memdef.PartitionStride / memdef.SectorSize)
	return memdef.Addr(slice*memdef.PartitionStride + sector*memdef.SectorSize)
}

// roundTrip saves ch and restores it into a fresh channel.
func roundTrip(t *testing.T, ch *Channel) *Channel {
	t.Helper()
	saved, _ := snapshot.Save(ch.State)
	got := NewChannel(ch.cfg)
	if err := snapshot.Load(saved, got.State); err != nil {
		t.Fatalf("LoadState of a saved channel: %v", err)
	}
	again, _ := snapshot.Save(got.State)
	if string(again) != string(saved) {
		t.Fatal("restored channel saves different bytes")
	}
	return got
}

// runDiff drives ch and a reference through one seeded stream of `steps`
// cycles, restoring ch from a snapshot halfway, and fails on the first
// divergence.
func runDiff(t *testing.T, cfg Config, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gen := addrGen{rng: rng, banks: cfg.Banks, slicesPerRow: cfg.RowBytes / memdef.PartitionStride}
	ch, ref := NewChannel(cfg), newRefChannel(cfg)
	// Bursty offered load: some phases saturate the queue, others let it
	// drain so NextEvent jumps across idle gaps.
	burst := 1 + rng.Intn(4)
	var now, token uint64
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			ch = roundTrip(t, ch)
		}
		if step%64 == 0 {
			burst = rng.Intn(5)
		}
		for n := rng.Intn(burst + 1); n > 0; n-- {
			r := Req{
				Local: gen.next(),
				Kind:  memdef.AccessKind(rng.Intn(2)),
				Class: stats.TrafficClass(rng.Intn(stats.NumTrafficClasses)),
				Token: token,
			}
			ok, refOK := ch.Enqueue(r, now), ref.enqueue(r, now)
			if ok != refOK {
				t.Fatalf("step %d cycle %d: Enqueue accepted=%v, reference %v", step, now, ok, refOK)
			}
			if ok {
				token++
			}
		}
		got, want := ch.Tick(now), ref.tick(now)
		if len(got) != len(want) {
			t.Fatalf("step %d cycle %d: %d completions, reference %d", step, now, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].req {
				t.Fatalf("step %d cycle %d: completion %d is token %d, reference token %d",
					step, now, i, got[i].Token, want[i].req.Token)
			}
		}
		next, refNext := ch.NextEvent(now), ref.nextEvent(now)
		if next != refNext {
			t.Fatalf("step %d cycle %d: NextEvent %d, reference %d", step, now, next, refNext)
		}
		if ch.Traffic != ref.traffic {
			t.Fatalf("step %d cycle %d: traffic %+v, reference %+v", step, now, ch.Traffic, ref.traffic)
		}
		if ch.RowHitRate() != ref.rowHitRate() || ch.BusUtilization(now) != ref.busUtilization(now) {
			t.Fatalf("step %d cycle %d: row hits %v bus %v, reference %v / %v", step, now,
				ch.RowHitRate(), ch.BusUtilization(now), ref.rowHitRate(), ref.busUtilization(now))
		}
		if ch.QueueLen() != len(ref.queue) || ch.Pending() != len(ref.queue)+len(ref.completed) {
			t.Fatalf("step %d cycle %d: queue %d pending %d, reference %d / %d", step, now,
				ch.QueueLen(), ch.Pending(), len(ref.queue), len(ref.queue)+len(ref.completed))
		}
		switch {
		case burst == 0 && next != ^uint64(0):
			now = next // idle phase: skip straight to the next event
		case rng.Intn(4) == 0:
			// Same-cycle re-entry: more enqueues and a second Tick at now.
		default:
			now += 1 + uint64(rng.Intn(3))
		}
	}
}

func TestSchedulerMatchesReference(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for _, banks := range []int{1, 2, 8, 16, 64, 128} {
		for _, depth := range []int{1, 4, 64} {
			for _, bpc := range []uint64{4759, 8192, 1200} {
				cfg := DefaultConfig()
				cfg.Banks, cfg.QueueDepth, cfg.BytesPerCycleFP = banks, depth, bpc
				t.Run(fmt.Sprintf("banks=%d/depth=%d/bpc=%d", banks, depth, bpc), func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						runDiff(t, cfg, seed, steps)
					}
				})
			}
		}
	}
}

// TestFastBusTiesPopInIssueOrder pins the one behavior the FIFO ring
// defines differently from the heap it replaced: on a bus faster than one
// sector per cycle several transfers finish in the same cycle, and they
// complete in the order the bus carried them.
func TestFastBusTiesPopInIssueOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BytesPerCycleFP = 4 * 8192 // four sectors per cycle
	ch := NewChannel(cfg)
	const n = 8
	for i := 0; i < n; i++ {
		// One request per bank: all issue at cycle 0 as row misses.
		ch.Enqueue(Req{Local: memdef.Addr(i * memdef.PartitionStride), Token: uint64(i)}, 0)
	}
	var order []uint64
	perCycle := map[uint64]int{}
	for now := uint64(0); !ch.Drained(); now = ch.NextEvent(now) {
		for _, r := range ch.Tick(now) {
			order = append(order, r.Token)
			perCycle[now]++
		}
	}
	for i, tok := range order {
		if tok != uint64(i) {
			t.Fatalf("completion order %v, want issue order 0..%d", order, n-1)
		}
	}
	if len(perCycle) >= n {
		t.Fatalf("completions spread over %d cycles; the case needs same-cycle ties", len(perCycle))
	}
}
