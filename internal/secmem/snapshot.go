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
// shared between the pending table, the counter-wait lists, and the ready
// heap, so the serializer assigns each distinct transaction a canonical
// identifier (first-encounter order over a deterministic walk: pending
// table slot order, then the wait-list node arena in index order, then
// the ready heap array), writes one transaction table, and encodes every
// reference as an identifier. The free pool (txnFree) is not serialized —
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
	m.pending.Range(func(_ uint64, pe *pendingEntry) bool {
		visit(pe.txn)
		return true
	})
	flatmap.VisitMultiMapNodes(&m.ctrWait, func(v **txn) { visit(*v) })
	for i := range m.ready {
		visit(m.ready[i].t)
	}
	return order, ids
}

// State codes the MEE's mutable state. Loading needs an MEE built with the
// identical config and rejects a transaction reference a later
// OnDRAMComplete or Tick would dereference as nil.
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
	flatmap.MapState(c, &m.pending, func(c *snapshot.Codec, pe *pendingEntry) {
		c.U8((*uint8)(&pe.kind))
		c.U64((*uint64)(&pe.key))
		ref(c, &pe.txn)
		if c.Loading() && pe.kind == pkData && pe.txn == nil {
			c.Failf("secmem[%d]: pending data read has no transaction", m.cfg.Partition)
		}
	})
	flatmap.MultiMapState(c, &m.ctrWait, ref)
	snapshot.Slice(c, (*[]readyTxn)(&m.ready), func(c *snapshot.Codec, r *readyTxn) {
		c.U64(&r.at)
		ref(c, &r.t)
		if c.Loading() && r.t == nil {
			c.Failf("secmem[%d]: ready entry has no transaction", m.cfg.Partition)
		}
	})
	snapshot.Slice(c, &m.responses, func(c *snapshot.Codec, r *memdef.Request) { r.State(c) })
	c.U64(&m.nextToken)
	c.U64(&m.aesFree)
	c.U64(&m.lastTick)
	if c.Loading() {
		m.txnFree = m.txnFree[:0]
	}
	m.Reg.State(c)
}
