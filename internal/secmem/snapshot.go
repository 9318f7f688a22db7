package secmem

import (
	"shmgpu/internal/cache"
	"shmgpu/internal/dram"
	"shmgpu/internal/flatmap"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/snapshot"
)

// Checkpoint/restore for the MEE. The restore target must be built by
// NewMEE with the identical config; structural parameters are validated
// by the embedded cache/predictor loaders plus the feature flags here.
//
// The pooled transactions need special handling: live *txn pointers are
// shared between the pending slab, the counter-wait lists, and the ready
// heap, so the serializer assigns each distinct transaction a canonical
// identifier (first-encounter order over a deterministic walk: pending
// slab order, then the wait-list node arena in index order, then the ready
// heap array), writes one transaction table, and encodes every reference
// as an identifier. The slab is saved whole — released slots keep their
// generation — with its free stack in order, so restored tokens and slot
// reuse match the saved run's. The free pool (txnFree) is not serialized —
// releaseTxn fully zeroes recycled transactions, so an empty pool after
// restore is behaviorally identical.
//
// Scratch that is never live at a cycle boundary is skipped: secBuf,
// bmtPathBuf/bmtSlotBuf, and the responses buffer's backing array
// (responses is drained by the caller within the same tick; its length is
// serialized anyway and asserted empty on restore via Idle-compatible
// content). Cold path only.

// collectTxns walks every structure holding *txn references in canonical
// order and returns the distinct transactions in first-encounter order
// plus the pointer→identifier index.
func (m *MEE) collectTxns() ([]*txn, map[*txn]int) {
	var order []*txn
	ids := make(map[*txn]int)
	visit := func(t *txn) {
		if t == nil {
			return
		}
		if _, ok := ids[t]; !ok {
			ids[t] = len(order)
			order = append(order, t)
		}
	}
	for i := range m.pending {
		visit(m.pending[i].txn)
	}
	flatmap.VisitMultiMapNodes(&m.ctrWait, func(v **txn) { visit(*v) })
	for i := range m.ready {
		visit(m.ready[i].t)
	}
	return order, ids
}

// State codes the MEE's mutable state. Loading needs an MEE built with the
// identical config and rejects a transaction reference a later
// OnDRAMComplete or Tick would dereference as nil, a buffered request for
// a partition that does not exist, and a pending slab whose free stack or
// buffered tokens disagree with its slots.
func (m *MEE) State(c *snapshot.Codec) {
	enabled, oracle, accuracy := m.cfg.Enabled, m.cfg.OracleDetectors, m.cfg.TrackAccuracy
	c.Bool(&enabled)
	c.Bool(&oracle)
	c.Bool(&accuracy)
	if enabled != m.cfg.Enabled || oracle != m.cfg.OracleDetectors || accuracy != m.cfg.TrackAccuracy {
		c.Failf("secmem[%d]: snapshot MEE features {enabled=%v oracle=%v accuracy=%v} do not match target {%v %v %v}",
			m.cfg.Partition, enabled, oracle, accuracy, m.cfg.Enabled, m.cfg.OracleDetectors, m.cfg.TrackAccuracy)
		return
	}
	if m.cfg.Enabled {
		for _, mdc := range []*cache.Cache{m.ctrCache, m.macCache, m.bmtCache} {
			mdc.State(c)
		}
		m.roPred.State(c)
		m.stPred.State(c)
		m.mats.State(c)
		if m.cfg.OracleDetectors {
			snapshot.SortedMap(c, &m.roOracle, (*snapshot.Codec).U64, (*snapshot.Codec).Bool)
			snapshot.SortedMap(c, &m.stOracle, (*snapshot.Codec).U64, (*snapshot.Codec).Bool)
		}
		if m.cfg.TrackAccuracy {
			m.roAcc.State(c)
			m.stAcc.State(c)
		}
	}
	flatmap.MapState(c, &m.diverged, func(*snapshot.Codec, *struct{}) {})
	c.U64(&m.sharedCounter)
	ringbuf.State(c, &m.input, func(c *snapshot.Codec, en *inputEntry) {
		en.req.State(c)
		c.U64(&en.at)
	})
	ringbuf.State(c, &m.outgoing, func(c *snapshot.Codec, o *outgoing) {
		c.Int(&o.part)
		dram.ReqState(c, &o.req)
		if c.Loading() && c.Err() == nil && (o.part < 0 || o.part >= m.cfg.NumPartitions) {
			c.Failf("secmem[%d]: buffered request for partition %d of %d", m.cfg.Partition, o.part, m.cfg.NumPartitions)
		}
	})

	var table []*txn
	var ids map[*txn]int
	if !c.Loading() {
		table, ids = m.collectTxns()
	}
	snapshot.Slice(c, &table, func(c *snapshot.Codec, t **txn) {
		if *t == nil {
			*t = new(txn)
		}
		(*t).req.State(c)
		c.Bool(&(*t).haveData)
		c.Bool(&(*t).haveOTP)
		c.U64(&(*t).otpAt)
		c.U64(&(*t).dataAt)
		c.U64(&(*t).submitAt)
		c.Bool(&(*t).enqueued)
	})
	// ref codes a transaction reference as its table index, -1 for nil.
	ref := func(c *snapshot.Codec, t **txn) {
		id := -1
		if *t != nil {
			id = ids[*t]
		}
		c.Int(&id)
		if !c.Loading() {
			return
		}
		if id < -1 || id >= len(table) {
			c.Failf("secmem[%d]: transaction id %d out of range (%d transactions)", m.cfg.Partition, id, len(table))
			return
		}
		if id >= 0 {
			*t = table[id]
		}
	}
	snapshot.Slice(c, &m.pending, func(c *snapshot.Codec, pe *pendingEntry) {
		c.U8((*uint8)(&pe.kind))
		c.Bool(&pe.live)
		gen := uint64(pe.gen)
		c.U64(&gen)
		pe.gen = uint32(gen)
		c.U64((*uint64)(&pe.key))
		ref(c, &pe.txn)
		if !c.Loading() || c.Err() != nil {
			return
		}
		switch {
		case gen > genMask:
			c.Failf("secmem[%d]: pending slot generation %d exceeds %d", m.cfg.Partition, gen, genMask)
		case !pe.live && *pe != (pendingEntry{gen: pe.gen}):
			c.Failf("secmem[%d]: released pending slot holds an entry", m.cfg.Partition)
		case pe.live && pe.kind == pkData && pe.txn == nil:
			c.Failf("secmem[%d]: pending data read has no transaction", m.cfg.Partition)
		}
	})
	snapshot.Slice(c, &m.pendFree, func(c *snapshot.Codec, s *int32) { c.I32(s) })
	if c.Loading() && c.Err() == nil {
		m.checkPending(c)
	}
	flatmap.MultiMapState(c, &m.ctrWait, ref)
	if c.Loading() && c.Err() == nil {
		flatmap.VisitMultiMapValues(&m.ctrWait, func(v **txn) {
			if *v == nil && c.Err() == nil {
				c.Failf("secmem[%d]: counter-wait entry has no transaction", m.cfg.Partition)
			}
		})
	}
	snapshot.Slice(c, (*[]readyTxn)(&m.ready), func(c *snapshot.Codec, r *readyTxn) {
		c.U64(&r.at)
		ref(c, &r.t)
		if c.Loading() && r.t == nil {
			c.Failf("secmem[%d]: ready entry has no transaction", m.cfg.Partition)
		}
	})
	snapshot.Slice(c, &m.responses, func(c *snapshot.Codec, r *memdef.Request) { r.State(c) })
	c.U64(&m.aesFree)
	c.U64(&m.lastTick)
	if c.Loading() {
		m.txnFree = m.txnFree[:0]
	} else {
		m.FoldCounters()
	}
	m.Reg.State(c)
}

// checkPending rejects a restored pending slab that a later send or
// completion could not use: a free stack naming a live, repeated or
// nonexistent slot or leaving a released slot off, and a buffered request
// whose token names another MEE, a released slot, another generation, or
// the same slot as an earlier request. It recounts pendLive.
func (m *MEE) checkPending(c *snapshot.Codec) {
	m.pendLive = 0
	for i := range m.pending {
		if m.pending[i].live {
			m.pendLive++
		}
	}
	seen := make([]bool, len(m.pending))
	for _, s := range m.pendFree {
		if s < 0 || int(s) >= len(m.pending) || m.pending[s].live || seen[s] {
			c.Failf("secmem[%d]: pending free stack names slot %d (%d slots)", m.cfg.Partition, s, len(m.pending))
			return
		}
		seen[s] = true
	}
	if m.pendLive+len(m.pendFree) != len(m.pending) {
		c.Failf("secmem[%d]: %d live and %d free pending slots, slab holds %d", m.cfg.Partition, m.pendLive, len(m.pendFree), len(m.pending))
		return
	}
	for i := 0; i < m.outgoing.Len(); i++ {
		tok := m.outgoing.At(i).req.Token
		slot := m.slotOf(tok)
		if slot < 0 || seen[slot] {
			c.Failf("secmem[%d]: buffered request token %#x names no live pending slot of its own", m.cfg.Partition, tok)
			return
		}
		seen[slot] = true
	}
}
