package gpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
)

// The differential test pins the streamed kernel-boundary flush to the
// eager one it replaced. eagerFlush is that reference: it queues every
// dirty sector into toMEE at once, as flushAll did before it kept a cursor
// over the cache's flush buffer. Two banks, one flushed each way, are driven
// with the same seeded input, fills and victim pushes against MEEs that
// refuse on the same seeded cycles; they must send their MEE the same
// (cycle, request) sequence and agree at every cycle on responses,
// drained, nextEvent and the MEE backlog.

// eagerFlush is the reference flush: every dirty sector goes into toMEE.
func eagerFlush(b *L2Bank) {
	b.spill(b.c.FlushAll(), memdef.Request{Partition: b.partition, Space: memdef.SpaceGlobal})
}

type submission struct {
	cycle uint64
	req   memdef.Request
}

type pendingFill struct {
	at    uint64
	local memdef.Addr
}

// flushMEE is an MEE as the bank sees it. On each cycle it accepts up to a
// number of submissions drawn from (seed, cycle), none on a refusing cycle,
// logs what it accepts and answers each read after a drawn delay.
type flushMEE struct {
	seed  uint64
	cycle uint64
	taken int
	log   []submission
	fills []pendingFill
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (m *flushMEE) submit(r memdef.Request, now uint64) bool {
	if now != m.cycle {
		m.cycle, m.taken = now, 0
	}
	h := mix(m.seed ^ now)
	if h%3 == 0 || m.taken >= int(h>>8%4) {
		return false
	}
	m.taken++
	m.log = append(m.log, submission{now, r})
	if r.Kind == memdef.Read {
		m.fills = append(m.fills, pendingFill{at: now + 4 + mix(h)%40, local: r.Local})
	}
	return true
}

func (m *flushMEE) SubmitRead(r memdef.Request, now uint64) bool  { return m.submit(r, now) }
func (m *flushMEE) SubmitWrite(r memdef.Request, now uint64) bool { return m.submit(r, now) }

// flushSide is one bank of the pair with its MEE and the responses it gave.
type flushSide struct {
	b     *L2Bank
	mee   *flushMEE
	resps []submission
}

func newFlushSide(cfg *Config, seed uint64) *flushSide {
	return &flushSide{b: newL2Bank(0, 0, cfg), mee: &flushMEE{seed: seed, cycle: ^uint64(0)}}
}

func (s *flushSide) respond(r memdef.Request, now uint64) {
	s.resps = append(s.resps, submission{now, r})
}

// deliver answers the reads whose fill is due, in submission order.
func (s *flushSide) deliver(now uint64) {
	rest := s.mee.fills[:0]
	for _, f := range s.mee.fills {
		if f.at <= now {
			s.b.onFill(f.local, now, s.respond)
		} else {
			rest = append(rest, f)
		}
	}
	s.mee.fills = rest
}

// flushCoverage counts the situations the test exists for, so a stream that
// stops producing them fails instead of passing vacuously.
type flushCoverage struct {
	flushes, behindCursor, gated, refusedFlush int
}

func runFlushDiff(t *testing.T, seed int64, cycles int) flushCoverage {
	t.Helper()
	cfg := smallConfig()
	cfg.L2BankBytes, cfg.L2Ways = 8<<10, 4 // 16 sets: writes evict, flushes exceed the >96 gate
	rng := rand.New(rand.NewSource(seed))
	eager, streamed := newFlushSide(&cfg, uint64(seed)), newFlushSide(&cfg, uint64(seed))
	var cov flushCoverage
	const span = 16 << 10 // data addresses: twice the bank, so sets conflict
	// Each 400-cycle phase asks for one flush. Input pauses until both
	// banks drain and flush, then resumes at once, so reads and victim
	// spills queue behind a flush still streaming out.
	wantFlush := false
	for now := uint64(0); now < uint64(cycles); now++ {
		if now%400 == 0 {
			wantFlush = true
		}
		eager.deliver(now)
		streamed.deliver(now)
		if wantFlush && eager.b.drained() && streamed.b.drained() {
			eagerFlush(eager.b)
			streamed.b.flushAll(now)
			wantFlush = false
			cov.flushes++
		}
		if !wantFlush {
			for n := rng.Intn(4); n > 0; n-- {
				r := memdef.Request{
					Local: memdef.Addr(rng.Intn(span/memdef.SectorSize) * memdef.SectorSize),
					SM:    int16(rng.Intn(4)),
					Kind:  memdef.Read,
					Space: memdef.SpaceGlobal,
				}
				if rng.Intn(3) != 0 {
					r.Kind = memdef.Write
				}
				r.Phys = r.Local
				if a, b := eager.b.enqueue(r, now), streamed.b.enqueue(r, now); a != b {
					t.Fatalf("seed %d cycle %d: enqueue accepted %v, eager %v", seed, now, b, a)
				}
			}
		}
		if rng.Intn(16) == 0 {
			// A metadata victim parked in the bank: its fill may evict a
			// dirty data line, whose write-back queues behind the flush.
			a := memdef.Addr(1<<30 + rng.Intn(1024)*memdef.SectorSize)
			eager.b.PushVictim(a)
			streamed.b.PushVictim(a)
		}
		if streamed.b.flushLeft > 0 && streamed.b.toMEE.Len() > 0 {
			cov.behindCursor++
		}
		if streamed.b.meeBacklog() > 96 {
			cov.gated++
		}
		logFrom, respFrom := len(streamed.mee.log), len(streamed.resps)
		flushing := streamed.b.flushLeft > 0
		eager.b.tick(now, eager.mee, eager.respond)
		streamed.b.tick(now, streamed.mee, streamed.respond)
		if flushing && streamed.b.flushLeft > 0 {
			cov.refusedFlush++
		}
		if err := compareFlushSides(eager, streamed, now, min(logFrom, len(eager.mee.log)), min(respFrom, len(eager.resps))); err != nil {
			t.Fatalf("seed %d cycle %d: %v", seed, now, err)
		}
	}
	return cov
}

// compareFlushSides checks the pair after the tick at now. Both logs agreed
// before it, so only this cycle's tails are compared.
func compareFlushSides(eager, streamed *flushSide, now uint64, logFrom, respFrom int) error {
	e, s := eager.b, streamed.b
	switch {
	case !reflect.DeepEqual(eager.mee.log[logFrom:], streamed.mee.log[logFrom:]):
		return fmt.Errorf("MEE submissions %+v, eager %+v", streamed.mee.log[logFrom:], eager.mee.log[logFrom:])
	case !reflect.DeepEqual(eager.resps[respFrom:], streamed.resps[respFrom:]):
		return fmt.Errorf("responses %+v, eager %+v", streamed.resps[respFrom:], eager.resps[respFrom:])
	case s.meeBacklog() != e.toMEE.Len():
		return fmt.Errorf("MEE backlog %d, eager toMEE %d", s.meeBacklog(), e.toMEE.Len())
	case s.drained() != e.drained():
		return fmt.Errorf("drained %v, eager %v", s.drained(), e.drained())
	case s.nextEvent(now) != e.nextEvent(now):
		return fmt.Errorf("nextEvent %d, eager %d", s.nextEvent(now), e.nextEvent(now))
	case s.c.Stats != e.c.Stats:
		return fmt.Errorf("cache stats %+v, eager %+v", s.c.Stats, e.c.Stats)
	}
	return nil
}

func TestStreamedFlushMatchesEager(t *testing.T) {
	cycles := 30_000
	if testing.Short() {
		cycles = 8_000
	}
	var total flushCoverage
	for seed := int64(1); seed <= 4; seed++ {
		cov := runFlushDiff(t, seed, cycles)
		total.flushes += cov.flushes
		total.behindCursor += cov.behindCursor
		total.gated += cov.gated
		total.refusedFlush += cov.refusedFlush
	}
	if total.flushes == 0 || total.behindCursor == 0 || total.gated == 0 || total.refusedFlush == 0 {
		t.Fatalf("stream left a case unexercised: %+v", total)
	}
	t.Logf("coverage: %+v", total)
}

// TestFlushWithBacklogViolates checks the flush-order invariant: a flush
// that finds a write-back still waiting for the MEE would send the flush
// ahead of it, so it is reported.
func TestFlushWithBacklogViolates(t *testing.T) {
	var got []invariant.Violation
	defer invariant.CollectInto(&got)()
	cfg := smallConfig()
	b := newL2Bank(0, 0, &cfg)
	b.flushAll(1)
	if len(got) != 0 {
		t.Fatalf("flush of a drained bank reported %v", got)
	}
	b.toMEE.Push(memdef.Request{Local: 0x80, SM: -1, Kind: memdef.Write})
	b.flushAll(2)
	if len(got) != 1 || got[0].Check != "flush-order" || got[0].Cycle != 2 {
		t.Fatalf("flush behind a queued write-back reported %v, want one flush-order violation at cycle 2", got)
	}
}
