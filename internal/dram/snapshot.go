package dram

import (
	"cmp"
	"fmt"
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
// LoadState rejects a payload that would restore a channel whose later
// behavior no saved run could produce: a queued request whose bank or row
// disagrees with its address, arrivals or completion cycles that decrease,
// a completion after the bus frees, an unknown kind or traffic class, clock
// values too large to advance without overflow, and request counts that do
// not conserve.

// maxCycle bounds every restored cycle value so that the fixed-point bus
// arithmetic (cycle × 256 plus latencies) cannot overflow.
const maxCycle = 1 << 48

// SaveReq writes one request (shared with the secmem serializer).
func SaveReq(e *snapshot.Encoder, r *Req) {
	e.U64(uint64(r.Local))
	e.U8(uint8(r.Kind))
	e.U8(uint8(r.Class))
	e.U64(r.Token)
}

// LoadReq restores a request written by SaveReq.
func LoadReq(d *snapshot.Decoder, r *Req) {
	r.Local = memdef.Addr(d.U64())
	r.Kind = memdef.AccessKind(d.U8())
	r.Class = stats.TrafficClass(d.U8())
	r.Token = d.U64()
}

// checkReq rejects a restored request the channel could not have accepted.
func checkReq(r *Req) error {
	if r.Kind != memdef.Read && r.Kind != memdef.Write {
		return fmt.Errorf("dram: request token %d has unknown kind %d", r.Token, r.Kind)
	}
	if int(r.Class) >= stats.NumTrafficClasses {
		return fmt.Errorf("dram: request token %d has unknown traffic class %d", r.Token, r.Class)
	}
	return nil
}

// SaveState writes the channel's mutable state.
func (ch *Channel) SaveState(e *snapshot.Encoder) {
	e.Int(ch.cfg.QueueDepth)
	e.Int(len(ch.banks))
	e.Int(ch.nQueued)
	queued := make([]int32, 0, ch.nQueued)
	for b := range ch.banks {
		for i := ch.banks[b].head; i >= 0; i = ch.slots[i].next {
			queued = append(queued, i)
		}
	}
	slices.SortFunc(queued, func(a, b int32) int { return cmp.Compare(ch.slots[a].seq, ch.slots[b].seq) })
	for _, i := range queued {
		p := &ch.slots[i]
		SaveReq(e, &p.Req)
		e.U64(p.arrival)
		e.Int(int(p.bank))
		e.U64(p.row)
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		e.U64(b.openRow)
		e.Bool(b.hasRow)
		e.U64(b.freeAt)
		e.U64(b.rowHits)
		e.U64(b.rowMisss)
	}
	e.U64(ch.busFreeFP)
	e.Int(ch.completed.Len())
	for i := 0; i < ch.completed.Len(); i++ {
		c := ch.completed.At(i)
		SaveReq(e, &c.req)
		e.U64(c.cycle)
	}
	ch.Traffic.SaveState(e)
	e.U64(ch.ReadsServed)
	e.U64(ch.WritesServed)
	e.U64(ch.busyFP)
	e.U64(ch.enqueued)
	e.U64(ch.lastTick)
}

// LoadState restores state saved by SaveState into a same-configured
// channel. It returns an error, leaving the channel unusable, when the
// payload is truncated or describes a state no run could reach.
func (ch *Channel) LoadState(d *snapshot.Decoder) error {
	depth := d.Int()
	nBanks := d.Int()
	nQueue := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if depth != ch.cfg.QueueDepth || nBanks != len(ch.banks) {
		return fmt.Errorf("dram: snapshot has depth %d / %d banks, this channel has %d / %d",
			depth, nBanks, ch.cfg.QueueDepth, len(ch.banks))
	}
	if nQueue < 0 || nQueue > depth {
		return fmt.Errorf("dram: snapshot queue length %d exceeds depth %d", nQueue, depth)
	}
	// Queued requests are pushed once the banks are loaded, so push sees
	// each bank's restored freeAt when it caches minFree.
	queued := make([]pendingReq, nQueue)
	var lastArrival uint64
	for i := range queued {
		p := &queued[i]
		LoadReq(d, &p.Req)
		p.arrival = d.U64()
		bank := d.Int()
		p.row = d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if err := checkReq(&p.Req); err != nil {
			return err
		}
		if b, row := ch.bankRow(p.Local); bank != b || p.row != row {
			return fmt.Errorf("dram: queued request token %d at %#x is saved on bank %d row %d, its address maps to bank %d row %d",
				p.Token, uint64(p.Local), bank, p.row, b, row)
		}
		if p.arrival < lastArrival || p.arrival > maxCycle {
			return fmt.Errorf("dram: queued request %d arrives at cycle %d, after one arriving at %d",
				i, p.arrival, lastArrival)
		}
		lastArrival = p.arrival
		p.bank = int32(bank)
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		b.openRow = d.U64()
		b.hasRow = d.Bool()
		b.freeAt = d.U64()
		b.rowHits = d.U64()
		b.rowMisss = d.U64()
		if b.freeAt > maxCycle {
			return fmt.Errorf("dram: bank %d frees at cycle %d, beyond %d", i, b.freeAt, uint64(maxCycle))
		}
	}
	ch.resetQueue()
	for i := range queued {
		ch.push(queued[i])
	}
	ch.busFreeFP = d.U64()
	nDone := d.Len()
	if err := d.Err(); err != nil {
		return err
	}
	if ch.busFreeFP > maxCycle*256 {
		return fmt.Errorf("dram: bus frees at fixed-point cycle %d, beyond %d", ch.busFreeFP, uint64(maxCycle*256))
	}
	busFree := (ch.busFreeFP + 255) / 256
	ch.completed.Clear()
	var lastDone uint64
	for i := 0; i < nDone; i++ {
		var c completion
		LoadReq(d, &c.req)
		c.cycle = d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if err := checkReq(&c.req); err != nil {
			return err
		}
		if c.cycle < lastDone || c.cycle > busFree {
			return fmt.Errorf("dram: completion %d at cycle %d is out of order (previous %d, bus frees at %d)",
				i, c.cycle, lastDone, busFree)
		}
		lastDone = c.cycle
		ch.completed.Push(c)
	}
	ch.Traffic.LoadState(d)
	ch.ReadsServed = d.U64()
	ch.WritesServed = d.U64()
	ch.busyFP = d.U64()
	ch.enqueued = d.U64()
	ch.lastTick = d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if ch.lastTick > maxCycle {
		return fmt.Errorf("dram: last tick at cycle %d, beyond %d", ch.lastTick, uint64(maxCycle))
	}
	// enqueued is maintained only while invariant checking is on; a
	// channel that will be checked must account for every request it holds.
	inside := ch.ReadsServed + ch.WritesServed + uint64(ch.Pending())
	if (ch.enqueued != 0 || invariant.Enabled()) && ch.enqueued != inside {
		return fmt.Errorf("dram: %d requests enqueued, but %d served plus %d pending",
			ch.enqueued, ch.ReadsServed+ch.WritesServed, ch.Pending())
	}
	return nil
}
