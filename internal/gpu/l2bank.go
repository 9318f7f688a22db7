package gpu

import (
	"fmt"
	"math/bits"

	"shmgpu/internal/cache"
	"shmgpu/internal/flatmap"
	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// l2Request is a sector request at the L2, carrying routing back to its SM.
type l2Request struct {
	req     memdef.Request
	arrived uint64
}

// L2Bank is one sectored L2 cache bank. Misses and dirty write-backs are
// forwarded to the partition's MEE. The bank also implements the metadata
// victim-cache role of §IV-D: metadata sectors evicted from the MDCs can be
// parked in the bank's data array and recalled on MDC misses, gated by a
// sampled data miss rate.
type L2Bank struct {
	partition int16
	bank      int16
	cfg       *Config
	c         *cache.Cache
	// waiters maps a sector being fetched to the requests to answer, in
	// arrival (FIFO) order.
	waiters flatmap.MultiMap[memdef.Request]
	// input is the queue from the crossbar.
	input ringbuf.Ring[l2Request]
	// toMEE buffers requests the MEE could not yet accept.
	toMEE ringbuf.Ring[memdef.Request]
	// flushWbs is what is left of a kernel-boundary flush: the tail of the
	// cache's FlushAll result, whose sectors go to the MEE one by one ahead
	// of toMEE (the flush found toMEE empty, so they are older than
	// anything in it). flushMask holds the unsent sectors of flushWbs[0]
	// and flushLeft counts every unsent sector.
	flushWbs  []cache.Writeback
	flushMask uint8
	flushLeft int

	// Miss-rate sampling for the victim-cache trigger. Data accesses only;
	// metadata (victim) traffic is excluded, mirroring the paper's
	// reserved sampling sets.
	sampleAccesses uint64
	sampleMisses   uint64
	sampledRate    float64
	haveSample     bool

	// VictimPushes counts metadata sectors parked in the bank.
	VictimPushes uint64

	// probe, when non-nil, observes data read hits and misses.
	probe *telemetry.Collector
}

func (b *L2Bank) accessProbe(now uint64, kind telemetry.EventKind) {
	if b.probe != nil {
		b.probe.Emit(telemetry.Event{Cycle: now, Kind: kind, Part: b.partition, Unit: b.bank})
	}
}

func newL2Bank(partition, bank int, cfg *Config) *L2Bank {
	return &L2Bank{
		partition: int16(partition),
		bank:      int16(bank),
		cfg:       cfg,
		c:         cache.New(cfg.l2Config()),
	}
}

// l2Config is the cache configuration of every L2 bank.
func (c *Config) l2Config() cache.Config {
	return cache.Config{
		Name:             "l2",
		SizeBytes:        c.L2BankBytes,
		Ways:             c.L2Ways,
		MSHRs:            c.L2MSHRs,
		MaxMergesPerMSHR: c.L2Merges,
	}
}

// Stats exposes the bank's cache stats.
func (b *L2Bank) Stats() stats.CacheStats { return b.c.Stats }

// l2InputDepth is the bank input queue capacity (entries accepted from the
// crossbar before the bank back-pressures the interconnect).
const l2InputDepth = 64

// canAccept reports whether the bank can take another request.
func (b *L2Bank) canAccept() bool { return b.input.Len() < l2InputDepth }

// enqueue admits a request from the crossbar.
func (b *L2Bank) enqueue(r memdef.Request, now uint64) bool {
	if !b.canAccept() {
		return false
	}
	b.input.Push(l2Request{req: r, arrived: now})
	return true
}

// meePort is the partition MEE's request side as the bank sees it: a
// submission returns false on back-pressure, and the bank keeps the request
// in toMEE to retry next cycle.
type meePort interface {
	SubmitRead(r memdef.Request, now uint64) bool
	SubmitWrite(r memdef.Request, now uint64) bool
}

func (b *L2Bank) sample(miss bool) {
	b.sampleAccesses++
	if miss {
		b.sampleMisses++
	}
	if b.sampleAccesses >= b.cfg.VictimSampleWindow {
		b.sampledRate = float64(b.sampleMisses) / float64(b.sampleAccesses)
		b.haveSample = true
		b.sampleAccesses, b.sampleMisses = 0, 0
	}
}

// resetSampling clears the sampler (kernel boundary, per the paper).
func (b *L2Bank) resetSampling() {
	b.sampleAccesses, b.sampleMisses = 0, 0
	b.haveSample = false
	b.sampledRate = 0
}

// victimActive reports whether the sampled data miss rate exceeds the
// threshold.
func (b *L2Bank) victimActive() bool {
	return b.haveSample && b.sampledRate >= b.cfg.VictimMissRateThreshold
}

// meeBacklog counts the requests waiting for the MEE: the unsent flush
// sectors and toMEE.
func (b *L2Bank) meeBacklog() int { return b.flushLeft + b.toMEE.Len() }

// flushFront returns the next flush write-back. The caller has checked
// flushLeft > 0.
func (b *L2Bank) flushFront() memdef.Request {
	s := bits.TrailingZeros8(b.flushMask)
	return memdef.Request{
		Local:     b.flushWbs[0].BlockAddr + memdef.Addr(s*memdef.SectorSize),
		Partition: b.partition,
		SM:        -1,
		Kind:      memdef.Write,
		Space:     memdef.SpaceGlobal,
	}
}

// flushPop marks the flush front sent.
func (b *L2Bank) flushPop() {
	b.flushLeft--
	if b.flushMask &= b.flushMask - 1; b.flushMask == 0 {
		b.flushWbs = b.flushWbs[1:]
		if len(b.flushWbs) > 0 {
			b.flushMask = b.flushWbs[0].SectorMask
		}
	}
}

// tick processes up to issueWidth input requests, forwarding misses and
// write-backs to the MEE. Responses ready from cache hits are appended via
// respond.
func (b *L2Bank) tick(now uint64, mee meePort, respond func(memdef.Request, uint64)) {
	// Retry buffered MEE submissions first, the flush stream ahead of
	// toMEE; the first refusal ends both.
	for b.flushLeft > 0 && mee.SubmitWrite(b.flushFront(), now) {
		b.flushPop()
	}
	for b.flushLeft == 0 && b.toMEE.Len() > 0 {
		r := *b.toMEE.Front()
		var ok bool
		if r.Kind == memdef.Write {
			ok = mee.SubmitWrite(r, now)
		} else {
			ok = mee.SubmitRead(r, now)
		}
		if !ok {
			break
		}
		b.toMEE.PopFront()
	}
	if b.meeBacklog() > 96 {
		return // severe back-pressure: stop accepting work this cycle
	}
	const issueWidth = 2
	for i := 0; i < issueWidth && b.input.Len() > 0; i++ {
		lr := *b.input.Front()
		if lr.arrived+b.cfg.L2Latency > now {
			break // model the pipeline latency
		}
		r := lr.req
		if r.Kind == memdef.Write {
			// Writes allocate without fetch; they are not part of the
			// sampled data-read miss rate (the paper samples regular
			// data misses to gate the victim cache).
			b.input.PopFront()
			_, wbs := b.c.Write(r.Local)
			b.spill(wbs, r)
			continue
		}
		switch b.c.Read(r.Local) {
		case cache.Hit:
			b.input.PopFront()
			b.sample(false)
			b.accessProbe(now, telemetry.EvL2Hit)
			respond(r, now)
		case cache.MissNew:
			b.input.PopFront()
			b.sample(true)
			b.accessProbe(now, telemetry.EvL2Miss)
			b.waiters.Add(uint64(memdef.SectorAddr(r.Local)), r)
			b.toMEE.Push(r)
		case cache.MissMerged:
			b.input.PopFront()
			b.sample(true)
			b.accessProbe(now, telemetry.EvL2Miss)
			b.waiters.Add(uint64(memdef.SectorAddr(r.Local)), r)
		case cache.Blocked:
			// No MSHR: leave at queue head and retry next cycle. This is
			// deliberate head-of-line blocking — younger requests behind
			// the blocked head must not bypass it, or response ordering
			// (and the L1s' fill/LRU interleaving) would change.
			return
		}
	}
}

// spill forwards dirty evicted sectors to the MEE as write-backs.
func (b *L2Bank) spill(wbs []cache.Writeback, template memdef.Request) {
	for _, wb := range wbs {
		for s := 0; s < memdef.SectorsPerBlock; s++ {
			if wb.SectorMask&(1<<uint(s)) == 0 {
				continue
			}
			r := template
			r.Kind = memdef.Write
			r.Local = wb.BlockAddr + memdef.Addr(s*memdef.SectorSize)
			r.SM = -1
			b.toMEE.Push(r)
		}
	}
}

// onFill installs a sector returned by the MEE and releases its waiters.
func (b *L2Bank) onFill(local memdef.Addr, now uint64, respond func(memdef.Request, uint64)) {
	sector := memdef.SectorAddr(local)
	wbs, _ := b.c.Fill(sector)
	// Fills can evict dirty victims (e.g. from earlier writes).
	if len(wbs) > 0 {
		tmpl := memdef.Request{Partition: b.partition, Space: memdef.SpaceGlobal}
		b.spill(wbs, tmpl)
	}
	b.waiters.Drain(uint64(sector), func(r memdef.Request) { // drain callback capturing two words, built once per fill (not per waiter)
		respond(r, now)
	})
}

// Victim-cache hooks (metadata sectors live above the data address space in
// partition-local addressing, so tags never collide with data).

// PushVictim parks a metadata sector in the bank. Dirty data sectors the
// installation evicts are forwarded to the MEE like any other eviction.
func (b *L2Bank) PushVictim(addr memdef.Addr) {
	wbs, _ := b.c.Fill(addr)
	if len(wbs) > 0 {
		tmpl := memdef.Request{Partition: b.partition, Space: memdef.SpaceGlobal}
		b.spill(wbs, tmpl)
	}
	b.VictimPushes++
}

// ProbeVictim looks up and consumes a parked metadata sector.
func (b *L2Bank) ProbeVictim(addr memdef.Addr) bool {
	if b.c.Probe(addr) {
		b.c.CleanInvalidate(addr)
		return true
	}
	return false
}

// drained reports whether the bank holds no queued work.
func (b *L2Bank) drained() bool {
	return b.input.Len() == 0 && b.meeBacklog() == 0 && b.waiters.Empty()
}

// nextEvent returns the earliest cycle after now at which this bank can make
// progress on its own: buffered MEE submissions retry every cycle, and the
// input head becomes issuable once its pipeline latency has elapsed. Waiters
// are woken by MEE fills, which the MEE's own horizon accounts for, so a
// bank with only waiters reports no self-driven event.
func (b *L2Bank) nextEvent(now uint64) uint64 {
	if b.meeBacklog() > 0 {
		return now + 1
	}
	if b.input.Len() > 0 {
		if t := b.input.Front().arrived + b.cfg.L2Latency; t > now+1 {
			return t
		}
		return now + 1
	}
	return ^uint64(0)
}

// flushAll writes back every dirty sector at a kernel boundary. The
// write-backs stream to the MEE from the cache's flush buffer rather than
// through toMEE, in the order spill would have queued them. The bank must
// be drained first: a write-back still waiting for the MEE would otherwise
// be overtaken by the flush.
func (b *L2Bank) flushAll(now uint64) {
	if n := b.meeBacklog(); n != 0 {
		invariant.Failf("flush-order", fmt.Sprintf("l2[%d.%d]", b.partition, b.bank), now,
			"kernel-boundary flush with %d write-backs still waiting for the MEE", n)
	}
	b.flushWbs = b.c.FlushAll()
	for _, wb := range b.flushWbs {
		b.flushLeft += wb.DirtySectors()
	}
	if len(b.flushWbs) > 0 {
		b.flushMask = b.flushWbs[0].SectorMask
	}
}
