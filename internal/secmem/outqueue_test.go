package secmem

import (
	"math/rand"
	"slices"
	"testing"

	"shmgpu/internal/dram"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/stats"
)

// eagerQueue is the outgoing buffer before runs: one entry per sector
// request, a chunk re-fetch pushed as its sectors one by one, and the
// entry count as the queue length. It is the reference for
// TestOutQueueMatchesEager.
type eagerQueue struct {
	ring ringbuf.Ring[outgoing]
}

func (q *eagerQueue) Len() int { return q.ring.Len() }

func (q *eagerQueue) pushRun(part int, r dram.Req, n int) {
	for i := 0; i < n; i++ {
		q.ring.Push(outgoing{part: int32(part), req: r})
		r.Local += memdef.SectorSize
	}
}

func (q *eagerQueue) drain(port DRAMPort, now uint64) {
	for q.ring.Len() > 0 {
		o := q.ring.Front()
		if !port.Enqueue(int(o.part), o.req, now) {
			break
		}
		q.ring.PopFront()
	}
}

// enqueue is one Enqueue call a queue made.
type enqueue struct {
	cycle    uint64
	part     int
	req      dram.Req
	accepted bool
}

// budgetPort accepts up to budget requests in the current cycle (0 on a
// refusing cycle) and logs every call.
type budgetPort struct {
	budget int
	log    []enqueue
}

func (p *budgetPort) Enqueue(part int, r dram.Req, now uint64) bool {
	ok := p.budget > 0
	if ok {
		p.budget--
	}
	p.log = append(p.log, enqueue{now, part, r, ok})
	return ok
}

// TestOutQueueMatchesEager drives the run-length queue and the eager
// reference through one seeded stream, cycle by cycle as MEE.Tick does:
// drain into a DRAM port that refuses on seeded cycles and accepts a
// seeded number of requests on the others, then push new requests while
// the issue gate (Len() < 32) is open, and sometimes a whole-chunk
// re-fetch run. Both must make the same Enqueue calls with the same
// (cycle, partition, request) and see the same gate decision every cycle.
func TestOutQueueMatchesEager(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		var q outQueue
		var ref eagerQueue
		var port, refPort budgetPort
		const chunkSectors = memdef.ChunkSize / memdef.SectorSize
		for now := uint64(0); now < 20000; now++ {
			budget := 0
			if rng.Intn(4) != 0 {
				budget = 1 + rng.Intn(6)
			}
			port.budget, refPort.budget = budget, budget
			q.drain(&port, now)
			ref.drain(&refPort, now)
			issued := 0
			for {
				gate, refGate := q.Len() < 32, ref.Len() < 32
				if gate != refGate {
					t.Fatalf("seed %d cycle %d: gate %v (Len %d), reference %v (Len %d)", seed, now, gate, q.Len(), refGate, ref.Len())
				}
				if !gate || issued == 2 || rng.Intn(3) == 0 {
					break
				}
				issued++
				part := rng.Intn(4)
				r := dram.Req{Local: memdef.Addr(rng.Intn(1<<16)) * memdef.SectorSize, Kind: memdef.AccessKind(rng.Intn(2)),
					Class: stats.TrafficClass(rng.Intn(4)), Token: rng.Uint64()}
				q.pushRun(part, r, 1)
				ref.pushRun(part, r, 1)
			}
			if rng.Intn(400) == 0 {
				r := dram.Req{Local: memdef.Addr(rng.Intn(64)) * memdef.ChunkSize, Kind: memdef.Read, Class: stats.TrafficMispredict}
				q.pushRun(0, r, chunkSectors)
				ref.pushRun(0, r, chunkSectors)
			}
		}
		if len(port.log) < 10000 || !slices.Equal(port.log, refPort.log) {
			t.Fatalf("seed %d: %d Enqueue calls, reference %d; the logs differ", seed, len(port.log), len(refPort.log))
		}
		if q.Len() != ref.Len() {
			t.Fatalf("seed %d: %d sectors left, reference %d", seed, q.Len(), ref.Len())
		}
	}
}
