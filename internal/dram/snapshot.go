package dram

import (
	"cmp"
	"slices"

	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/stats"
)

// Checkpoint/restore. The restore target must be a channel built by
// NewChannel with the identical configuration. Queued requests are written
// in sequence order and renumbered from zero on restore: only their
// relative order reaches the scheduler. Completions are written in pop
// order. Done cycles never decrease in issue order (see the package
// comment), so the ring's FIFO order is the channel's whole completion
// order and restoring it element by element reproduces every later pop,
// including same-cycle ties on a bus faster than one sector per cycle.
// doneBuf is scratch — only valid between Tick and the caller consuming
// the returned slice — and is never live at a cycle boundary, so it is not
// serialized. Cold path only.
//
// Loading rejects a payload that would restore a channel whose later
// behavior no saved run could produce: a queued request whose bank or row
// disagrees with its address, arrivals or completion cycles that decrease,
// a completion after the bus frees, an unknown kind or traffic class, clock
// values too large to advance without overflow, and request counts that do
// not conserve.

// maxCycle bounds every restored cycle value so that the fixed-point bus
// arithmetic (cycle × 256 plus latencies) cannot overflow.
const maxCycle = 1 << 48

// ReqState codes one request (shared with the secmem serializer). Loading
// rejects a request the channel could not have accepted.
func ReqState(c *snapshot.Codec, r *Req) {
	c.U64((*uint64)(&r.Local))
	c.U8((*uint8)(&r.Kind))
	c.U8((*uint8)(&r.Class))
	c.U64(&r.Token)
	switch {
	case !c.Loading():
	case r.Kind != memdef.Read && r.Kind != memdef.Write:
		c.Failf("dram: request token %d has unknown kind %d", r.Token, r.Kind)
	case int(r.Class) >= stats.NumTrafficClasses:
		c.Failf("dram: request token %d has unknown traffic class %d", r.Token, r.Class)
	}
}

// State codes the channel's mutable state. Loading needs a channel built
// with the identical configuration and fails, leaving it unusable, when
// the payload is truncated or describes a state no run could reach.
func (ch *Channel) State(c *snapshot.Codec) {
	if !c.Count(ch.cfg.QueueDepth, "dram: queue depth") || !c.Count(len(ch.banks), "dram: banks") {
		return
	}
	var queued []pendingReq
	if !c.Loading() {
		for b := range ch.banks {
			for i := ch.banks[b].head; i >= 0; i = ch.slots[i].next {
				queued = append(queued, ch.slots[i])
			}
		}
		slices.SortFunc(queued, func(a, b pendingReq) int { return cmp.Compare(a.seq, b.seq) })
	}
	n := len(queued)
	c.Int(&n)
	if c.Loading() {
		if n < 0 || n > ch.cfg.QueueDepth {
			c.Failf("dram: snapshot queue length %d exceeds depth %d", n, ch.cfg.QueueDepth)
		}
		if c.Err() != nil {
			return
		}
		queued = make([]pendingReq, n)
	}
	var lastArrival uint64
	for i := range queued {
		p := &queued[i]
		ReqState(c, &p.Req)
		c.U64(&p.arrival)
		bank := int(p.bank)
		c.Int(&bank)
		c.U64(&p.row)
		if !c.Loading() {
			continue
		}
		if b, row := ch.bankRow(p.Local); bank != b || p.row != row {
			c.Failf("dram: queued request token %d at %#x is saved on bank %d row %d, its address maps to bank %d row %d",
				p.Token, uint64(p.Local), bank, p.row, b, row)
		}
		if p.arrival < lastArrival || p.arrival > maxCycle {
			c.Failf("dram: queued request %d arrives at cycle %d, after one arriving at %d", i, p.arrival, lastArrival)
		}
		if c.Err() != nil {
			return
		}
		lastArrival = p.arrival
		p.bank = int32(bank)
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		c.U64(&b.openRow)
		c.Bool(&b.hasRow)
		c.U64(&b.freeAt)
		c.U64(&b.rowHits)
		c.U64(&b.rowMisss)
		if c.Loading() && b.freeAt > maxCycle {
			c.Failf("dram: bank %d frees at cycle %d, beyond %d", i, b.freeAt, uint64(maxCycle))
			return
		}
	}
	if c.Loading() {
		// Push once the banks are loaded, so push sees each bank's
		// restored freeAt when it caches minFree.
		ch.resetQueue()
		for i := range queued {
			ch.push(queued[i])
		}
	}
	c.U64(&ch.busFreeFP)
	nDone := ch.completed.Len()
	c.Len(&nDone)
	if c.Loading() {
		if ch.busFreeFP > maxCycle*256 {
			c.Failf("dram: bus frees at fixed-point cycle %d, beyond %d", ch.busFreeFP, uint64(maxCycle*256))
		}
		if c.Err() != nil {
			return
		}
		ch.completed.Clear()
	}
	busFree := (ch.busFreeFP + 255) / 256
	var lastDone uint64
	for i := 0; i < nDone; i++ {
		var done completion
		if !c.Loading() {
			done = *ch.completed.At(i)
		}
		ReqState(c, &done.req)
		c.U64(&done.cycle)
		if !c.Loading() {
			continue
		}
		if done.cycle < lastDone || done.cycle > busFree {
			c.Failf("dram: completion %d at cycle %d is out of order (previous %d, bus frees at %d)",
				i, done.cycle, lastDone, busFree)
		}
		if c.Err() != nil {
			return
		}
		lastDone = done.cycle
		ch.completed.Push(done)
	}
	ch.Traffic.State(c)
	for _, v := range []*uint64{&ch.ReadsServed, &ch.WritesServed, &ch.busyFP, &ch.enqueued, &ch.lastTick} {
		c.U64(v)
	}
	if !c.Loading() || c.Err() != nil {
		return
	}
	if ch.lastTick > maxCycle {
		c.Failf("dram: last tick at cycle %d, beyond %d", ch.lastTick, uint64(maxCycle))
		return
	}
	// enqueued is maintained only while invariant checking is on; a
	// channel that will be checked must account for every request it holds.
	inside := ch.ReadsServed + ch.WritesServed + uint64(ch.Pending())
	if (ch.enqueued != 0 || invariant.Enabled()) && ch.enqueued != inside {
		c.Failf("dram: %d requests enqueued, but %d served plus %d pending",
			ch.enqueued, ch.ReadsServed+ch.WritesServed, ch.Pending())
	}
}
