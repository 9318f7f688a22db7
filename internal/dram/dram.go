// Package dram models one GDDR memory partition's DRAM channel: a bounded
// request queue, banks with open-row state, FR-FCFS-lite scheduling, and a
// shared data bus whose throughput is the partition's share of the GPU's
// aggregate bandwidth (336 GB/s across 12 partitions in the paper's
// baseline, Table V).
//
// All times are in GPU core cycles (1506 MHz). Bandwidth is modeled with a
// fixed-point bus reservation: each 32 B sector transfer occupies the data
// bus for SectorBytes/BytesPerCycle cycles, so sustained throughput
// converges to the configured bytes-per-cycle figure regardless of request
// mix, while row hits/misses shape latency.
//
// # Scheduling state
//
// A tick costs O(banks with queued work) and a completion O(1):
//
//   - The queue is a fixed slab of QueueDepth slots threaded into one
//     intrusive FIFO list per bank plus a free list. Every entry carries a
//     global enqueue sequence number. Arrivals never decrease (Enqueue and
//     Tick see a non-decreasing clock), so "oldest" in FR-FCFS is "lowest
//     sequence number": the pick is the lowest-sequence row hit among free
//     banks, else the lowest-sequence bank head among free banks. Ties on
//     arrival go to the earlier enqueue, as in a linear scan of an
//     arrival-ordered queue.
//   - A bitmask names the banks with queued work, and minFree caches the
//     earliest freeAt among them. A tick at which no such bank is free
//     skips the scan, and NextEvent reads minFree instead of the queue.
//   - Completions sit in a FIFO ring. Each issue starts its transfer no
//     earlier than the bus frees and moves busFreeFP forward by transferFP,
//     so done cycles never decrease in issue order and the ring's front is
//     always the earliest completion. With transferFP ≥ 256 (a bus of at
//     most one sector per cycle, BytesPerCycleFP ≤ 8192, which covers the
//     default 4759) every issue moves the bus by at least one cycle and
//     done cycles strictly increase. On a faster bus, completions that fall
//     in the same cycle pop in issue order, the order the serialized bus
//     transferred them.
package dram

import (
	"fmt"
	"math/bits"

	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/stats"
	"shmgpu/internal/telemetry"
)

// maxQueueDepth bounds QueueDepth: the queue is one slab allocated up front
// and indexed by int32 slot numbers.
const maxQueueDepth = 1 << 16

// Config describes one DRAM channel (one memory partition).
type Config struct {
	// Banks is the number of DRAM banks in the partition.
	Banks int
	// RowBytes is the open-row (page) size per bank.
	RowBytes int
	// CASCycles is the column access latency for a row hit.
	CASCycles uint64
	// RowCycles is the additional precharge+activate latency on a row miss.
	RowCycles uint64
	// BytesPerCycleFP is the data-bus throughput in bytes per core cycle,
	// in 1/256 fixed point (e.g. 18.59 B/cy ≈ 4759).
	BytesPerCycleFP uint64
	// QueueDepth is the request queue capacity.
	QueueDepth int
}

// DefaultConfig returns the paper's baseline partition channel:
// 336 GB/s / 12 partitions at 1506 MHz core clock = 18.59 B/cycle.
func DefaultConfig() Config {
	return Config{
		Banks:           16,
		RowBytes:        2048,
		CASCycles:       40,
		RowCycles:       80,
		BytesPerCycleFP: 4759, // 18.59 B/cycle * 256
		QueueDepth:      64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: banks %d must be a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes%memdef.PartitionStride != 0 {
		return fmt.Errorf("dram: row bytes %d must be a positive multiple of the partition stride", c.RowBytes)
	}
	if c.BytesPerCycleFP == 0 {
		return fmt.Errorf("dram: bus throughput must be positive")
	}
	if c.QueueDepth <= 0 || c.QueueDepth > maxQueueDepth {
		return fmt.Errorf("dram: queue depth %d must be in [1, %d]", c.QueueDepth, maxQueueDepth)
	}
	return nil
}

// Req is one 32 B sector request to the channel.
type Req struct {
	// Local is the partition-local sector address.
	Local memdef.Addr
	// Kind is Read or Write.
	Kind memdef.AccessKind
	// Class labels the bytes for bandwidth accounting.
	Class stats.TrafficClass
	// Token is an opaque caller identifier returned on completion.
	Token uint64
}

// pendingReq is one queue slot. next links it into its bank's FIFO list
// while queued, and into the free list otherwise (-1 ends either list).
type pendingReq struct {
	Req
	arrival uint64
	seq     uint64
	row     uint64
	bank    int32
	next    int32
}

type completion struct {
	req   Req
	cycle uint64
}

type bank struct {
	openRow  uint64
	hasRow   bool
	freeAt   uint64
	rowHits  uint64
	rowMisss uint64
	// head and tail are this bank's queued slots in sequence order, -1
	// when the bank has no queued work.
	head, tail int32
}

// Channel is one memory partition's DRAM channel.
type Channel struct {
	cfg   Config
	slots []pendingReq // the queue slab, cfg.QueueDepth slots
	free  int32        // head of the free slot list, -1 when the queue is full
	// nQueued counts queued (not yet issued) requests; nextSeq numbers the
	// next enqueue.
	nQueued int
	nextSeq uint64
	banks   []bank
	// active has bit b set while bank b has queued work; minFree is the
	// earliest freeAt over those banks, meaningful only while nQueued > 0.
	active    []uint64
	minFree   uint64
	busFreeFP uint64 // fixed-point cycle (×256) when the data bus frees
	completed ringbuf.Ring[completion]
	// doneBuf backs the slice returned by Tick; see the validity note there.
	doneBuf []Req

	// Traffic accounts every byte moved, by class and direction.
	Traffic stats.Traffic
	// ReadsServed and WritesServed count completed sector requests.
	ReadsServed, WritesServed uint64
	// BusyCycles approximates cycles in which the bus was transferring.
	busyFP uint64

	// probe, when non-nil, observes enqueues (queue depth) and issues
	// (service latency). part identifies this channel in probe events.
	probe telemetry.Probe
	part  int16

	// enqueued counts accepted requests for the request-conservation
	// invariant; lastTick enforces clock monotonicity. Both are maintained
	// only while invariant checking is enabled.
	enqueued uint64
	lastTick uint64
}

// SetProbe installs the telemetry probe (nil to disable) and the channel's
// partition id used in emitted events.
func (ch *Channel) SetProbe(p telemetry.Probe, part int) {
	ch.probe = p
	ch.part = int16(part)
}

// NewChannel builds a channel, panicking on invalid configuration.
func NewChannel(cfg Config) *Channel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ch := &Channel{
		cfg:    cfg,
		slots:  make([]pendingReq, cfg.QueueDepth),
		banks:  make([]bank, cfg.Banks),
		active: make([]uint64, (cfg.Banks+63)/64),
	}
	ch.resetQueue()
	return ch
}

// resetQueue empties the queue: every slot on the free list, every bank
// list empty.
func (ch *Channel) resetQueue() {
	for i := range ch.slots {
		ch.slots[i] = pendingReq{next: int32(i + 1)}
	}
	ch.slots[len(ch.slots)-1].next = -1
	ch.free = 0
	ch.nQueued = 0
	ch.nextSeq = 0
	for i := range ch.banks {
		ch.banks[i].head, ch.banks[i].tail = -1, -1
	}
	clear(ch.active)
}

// Config returns the channel configuration.
func (ch *Channel) Config() Config { return ch.cfg }

// CanAccept reports whether Enqueue would succeed.
func (ch *Channel) CanAccept() bool { return ch.free >= 0 }

// QueueLen returns the number of queued (not yet issued) requests.
func (ch *Channel) QueueLen() int { return ch.nQueued }

// Pending returns queued plus in-flight (issued, not yet completed) requests.
func (ch *Channel) Pending() int { return ch.nQueued + ch.completed.Len() }

// bankRow maps a partition-local address to its bank and row.
func (ch *Channel) bankRow(local memdef.Addr) (int, uint64) {
	slice := uint64(local) / memdef.PartitionStride
	b := int(slice % uint64(ch.cfg.Banks))
	slicesPerRow := uint64(ch.cfg.RowBytes / memdef.PartitionStride)
	return b, (slice / uint64(ch.cfg.Banks)) / slicesPerRow
}

// Enqueue adds a sector request at cycle now. It returns false when the
// queue is full (the caller must retry; this is the back-pressure that
// creates bandwidth contention upstream). now must not be earlier than any
// earlier Enqueue's or Tick's.
func (ch *Channel) Enqueue(r Req, now uint64) bool {
	if !ch.CanAccept() {
		return false
	}
	b, row := ch.bankRow(r.Local)
	ch.push(pendingReq{Req: r, arrival: now, row: row, bank: int32(b)})
	if invariant.Enabled() {
		ch.enqueued++
		if now < ch.lastTick {
			invariant.Failf("clock-monotonic", fmt.Sprintf("dram[%d]", ch.part), now,
				"Enqueue at now=%d before the last Tick at %d (local %#x token %d)",
				now, ch.lastTick, uint64(r.Local), r.Token)
		}
	}
	if ch.probe != nil {
		ch.probe.Emit(telemetry.Event{
			Cycle: now, Kind: telemetry.EvDRAMEnqueue, Part: ch.part,
			Class: uint8(r.Class), Value: uint64(ch.nQueued),
		})
	}
	return true
}

// push takes a free slot for p, gives it the next sequence number and
// appends it to its bank's list. The caller has checked CanAccept.
func (ch *Channel) push(p pendingReq) {
	idx := ch.free
	ch.free = ch.slots[idx].next
	p.seq = ch.nextSeq
	p.next = -1
	ch.nextSeq++
	ch.slots[idx] = p
	bk := &ch.banks[p.bank]
	if bk.tail < 0 {
		bk.head = idx
		ch.active[p.bank>>6] |= 1 << (p.bank & 63)
		if ch.nQueued == 0 || bk.freeAt < ch.minFree {
			ch.minFree = bk.freeAt
		}
	} else {
		ch.slots[bk.tail].next = idx
	}
	bk.tail = idx
	ch.nQueued++
}

// Tick advances the channel to cycle now: issues eligible requests (FR-FCFS:
// oldest row hit first, else oldest) and returns requests whose data
// transfer completed at or before now. Call with a monotonically
// non-decreasing now. The returned slice aliases a per-channel scratch
// buffer and is valid only until the next Tick (the caller consumes it
// within the same simulated cycle).
func (ch *Channel) Tick(now uint64) []Req {
	if invariant.Enabled() {
		if now < ch.lastTick {
			invariant.Failf("clock-monotonic", fmt.Sprintf("dram[%d]", ch.part), now,
				"Tick clock ran backwards: now=%d < last=%d", now, ch.lastTick)
		}
		ch.lastTick = now
	}
	// Issue as long as a request can start this cycle. Several issues per
	// cycle are allowed; the bus reservation serializes actual transfers.
	// Each pick refreshes minFree, so a tick at which every bank with
	// queued work is busy costs one comparison.
	for ch.nQueued > 0 && ch.minFree <= now {
		idx, prev := ch.pickNext(now)
		if idx < 0 {
			break // every queued request's bank is busy
		}
		p := ch.unlink(idx, prev)
		bk := &ch.banks[p.bank]
		// Column accesses to an open row are pipelined: they add CAS
		// latency but do not occupy the bank. A row miss additionally
		// occupies the bank for the precharge+activate time.
		var rowLat uint64
		if bk.hasRow && bk.openRow == p.row {
			rowLat = ch.cfg.CASCycles
			bk.rowHits++
		} else {
			rowLat = ch.cfg.CASCycles + ch.cfg.RowCycles
			bk.freeAt = now + ch.cfg.RowCycles
			bk.rowMisss++
		}
		bk.openRow = p.row
		bk.hasRow = true

		transferFP := uint64(memdef.SectorSize) * 256 * 256 / ch.cfg.BytesPerCycleFP
		readyFP := (now + rowLat) * 256
		startFP := readyFP
		if ch.busFreeFP > startFP {
			startFP = ch.busFreeFP
		}
		ch.busFreeFP = startFP + transferFP
		ch.busyFP += transferFP
		doneCycle := (startFP + transferFP + 255) / 256

		ch.completed.Push(completion{req: p.Req, cycle: doneCycle})
		if ch.probe != nil {
			ch.probe.Emit(telemetry.Event{
				Cycle: now, Kind: telemetry.EvDRAMService, Part: ch.part,
				Class: uint8(p.Class), Unit: int16(p.bank), Value: doneCycle - p.arrival,
			})
		}

		if p.Kind == memdef.Read {
			ch.Traffic.AddRead(p.Class, memdef.SectorSize)
		} else {
			ch.Traffic.AddWrite(p.Class, memdef.SectorSize)
		}
	}

	done := ch.doneBuf[:0]
	for !ch.completed.Empty() && ch.completed.Front().cycle <= now {
		c := ch.completed.PopFront()
		if c.req.Kind == memdef.Read {
			ch.ReadsServed++
		} else {
			ch.WritesServed++
		}
		done = append(done, c.req) //shm:alloc-ok fills the reused doneBuf scratch, amortized
	}
	ch.doneBuf = done
	return done
}

// NextEvent returns the earliest cycle after now at which the channel can
// make progress on its own — a busy bank freeing (unblocking a queued
// request) or an in-flight transfer completing — or ^uint64(0) when it is
// fully drained. Tick issues every request whose bank is free and pops
// every matured completion, so after a Tick at now both candidate times are
// strictly in the future.
func (ch *Channel) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	if ch.nQueued > 0 {
		next = ch.minFree
	}
	if !ch.completed.Empty() && ch.completed.Front().cycle < next {
		next = ch.completed.Front().cycle
	}
	if next <= now {
		return now + 1
	}
	return next
}

// pickNext implements FR-FCFS-lite over requests whose bank is free at
// cycle now: the oldest row hit wins; otherwise the oldest such request.
// It returns the chosen slot and its predecessor in its bank's list (-1 at
// the head), or slot -1 when every queued request targets a busy bank. It
// also recomputes minFree over the banks with queued work.
func (ch *Channel) pickNext(now uint64) (slot, prev int32) {
	hit, hitPrev, head := int32(-1), int32(-1), int32(-1)
	hitSeq, headSeq := ^uint64(0), ^uint64(0)
	minFree := ^uint64(0)
	for w, word := range ch.active {
		for word != 0 {
			bk := &ch.banks[w<<6|bits.TrailingZeros64(word)]
			word &= word - 1
			if bk.freeAt < minFree {
				minFree = bk.freeAt
			}
			if bk.freeAt > now {
				continue
			}
			if s := ch.slots[bk.head].seq; s < headSeq {
				head, headSeq = bk.head, s
			}
			if !bk.hasRow {
				continue
			}
			// The bank's list is in sequence order: its first entry on
			// the open row is its oldest hit, and nothing past an entry
			// younger than the best hit so far can win.
			for i, pi := bk.head, int32(-1); i >= 0; pi, i = i, ch.slots[i].next {
				p := &ch.slots[i]
				if p.seq >= hitSeq {
					break
				}
				if p.row == bk.openRow {
					hit, hitPrev, hitSeq = i, pi, p.seq
					break
				}
			}
		}
	}
	ch.minFree = minFree
	if hit >= 0 {
		return hit, hitPrev
	}
	return head, -1
}

// unlink removes slot idx (whose predecessor in its bank's list is prev)
// from the queue, returns its request and puts the slot on the free list.
func (ch *Channel) unlink(idx, prev int32) pendingReq {
	p := ch.slots[idx]
	bk := &ch.banks[p.bank]
	if prev < 0 {
		bk.head = p.next
	} else {
		ch.slots[prev].next = p.next
	}
	if bk.tail == idx {
		bk.tail = prev
	}
	if bk.head < 0 {
		ch.active[p.bank>>6] &^= 1 << (p.bank & 63)
	}
	ch.slots[idx].next = ch.free
	ch.free = idx
	ch.nQueued--
	return p
}

// Drained reports whether no requests are queued or in flight.
func (ch *Channel) Drained() bool { return ch.nQueued == 0 && ch.completed.Empty() }

// CheckConserved verifies the request-conservation invariant at a drain
// point: every request accepted by Enqueue must have been returned by Tick.
// Callers gate on invariant.Enabled() (the counters only accumulate while
// checking is on, so the check is only coherent when enabled for the whole
// run).
func (ch *Channel) CheckConserved(component string, now uint64) {
	served := ch.ReadsServed + ch.WritesServed
	if ch.enqueued != served || !ch.Drained() {
		invariant.Failf("request-conservation", component, now,
			"%d enqueued, %d served, %d queued, %d in flight",
			ch.enqueued, served, ch.nQueued, ch.completed.Len())
	}
}

// RowHitRate returns the fraction of issued requests that hit an open row.
func (ch *Channel) RowHitRate() float64 {
	var hits, total uint64
	for i := range ch.banks {
		hits += ch.banks[i].rowHits
		total += ch.banks[i].rowHits + ch.banks[i].rowMisss
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// BusUtilization returns the fraction of cycles [0,now] the data bus was
// transferring.
func (ch *Channel) BusUtilization(now uint64) float64 {
	if now == 0 {
		return 0
	}
	return float64(ch.busyFP) / float64(now*256)
}
