package secmem

import (
	"math/rand"
	"testing"

	"shmgpu/internal/dram"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
)

// fifoPort completes every request a fixed latency after it is enqueued,
// in order, from a reused queue: an allocation-free DRAM stand-in.
type fifoPort struct {
	latency uint64
	q       ringbuf.Ring[struct{ token, at uint64 }]
}

func (p *fifoPort) Enqueue(_ int, r dram.Req, now uint64) bool {
	p.q.Push(struct{ token, at uint64 }{r.Token, now + p.latency})
	return true
}

func (p *fifoPort) deliver(m *MEE, now uint64) {
	for p.q.Len() > 0 && p.q.Front().at <= now {
		m.OnDRAMComplete(p.q.PopFront().token, now)
	}
}

// BenchmarkMEETick measures one SHM MEE cycle under a steady stream of
// reads and writes (one in four) over 4 MB: every lookup of the metadata
// caches, the pending slab, the counter-wait lists and the ready heap.
func BenchmarkMEETick(b *testing.B) {
	const protected = 4 << 20
	port := &fifoPort{latency: 200}
	m := NewMEE(DefaultConfig(shmOpts(), 0, 12, protected), port)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]memdef.Request, 1<<12)
	for i := range reqs {
		reqs[i] = rd(memdef.Addr(rng.Intn(protected/memdef.SectorSize)) * memdef.SectorSize)
		if i%4 == 3 {
			reqs[i].Kind = memdef.Write
		}
	}
	next := 0
	cycle := func(now uint64) {
		if r := reqs[next&(len(reqs)-1)]; m.CanAccept() {
			if r.Kind == memdef.Write {
				m.SubmitWrite(r, now)
			} else {
				m.SubmitRead(r, now)
			}
			next++
		}
		m.Tick(now)
		port.deliver(m, now)
	}
	now := uint64(0)
	for ; now < 200_000; now++ {
		cycle(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(now)
		now++
	}
}
