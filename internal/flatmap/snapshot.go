package flatmap

import (
	"fmt"

	"shmgpu/internal/snapshot"
)

// This file serializes the physical table layout — capacity plus
// (slot, key, value) triples for used slots — rather than a canonical
// key-sorted form. The slot layout is a pure function of the insert/delete
// history, and Range walks it directly, so restoring anything but the
// exact layout would let a restored run diverge from a from-scratch run
// the first time iteration order (or a subsequent backward-shift delete)
// becomes observable. All of this is cold checkpoint/restore code.

// maxTableCap bounds restored table capacities so a corrupt capacity field
// fails cleanly instead of driving a huge allocation.
const maxTableCap = 1 << 20

// MapState codes m's physical slot layout, el coding one value. Loading
// replaces m's contents.
func MapState[V any](c *snapshot.Codec, m *Map[V], el func(*snapshot.Codec, *V)) {
	capN, n := len(m.slots), m.n
	c.Int(&capN)
	c.Int(&n)
	if c.Loading() {
		switch {
		case c.Err() != nil:
			return
		case capN < 0 || capN > maxTableCap || (capN != 0 && capN&(capN-1) != 0):
			c.Failf("flatmap: bad table capacity %d", capN)
			return
		case n < 0 || n > capN/4*3:
			// Above the 3/4 load factor Put never lets a table reach, a
			// probe for an absent key could find no free slot.
			c.Failf("flatmap: bad entry count %d for capacity %d", n, capN)
			return
		}
		*m = Map[V]{slots: make([]slot[V], capN), n: n}
	}
	i := -1
	for j := 0; j < m.n; j++ {
		if !c.Loading() {
			for i++; !m.slots[i].used; i++ {
			}
		}
		c.Int(&i)
		if c.Loading() {
			if c.Err() == nil && (i < 0 || i >= len(m.slots) || m.slots[i].used) {
				c.Failf("flatmap: bad slot index %d for capacity %d", i, len(m.slots))
			}
			if c.Err() != nil {
				return
			}
			m.slots[i].used = true
		}
		c.U64(&m.slots[i].key)
		el(c, &m.slots[i].val)
	}
}

// VisitMultiMapNodes calls fn for every node in mm's arena in index order
// — a deterministic walk (the arena layout is a pure function of the
// Add/Drain history) that includes free-chain nodes, whose values are
// zero. Serializers use it to assign canonical identifiers to
// pointer-typed values before encoding them.
func VisitMultiMapNodes[V any](mm *MultiMap[V], fn func(v *V)) {
	for i := range mm.nodes {
		fn(&mm.nodes[i].v)
	}
}

// VisitMultiMapValues calls fn for every queued value of mm, list by list
// in key slot order and FIFO within a list; free-chain nodes are skipped.
// Loaders use it to check restored values.
func VisitMultiMapValues[V any](mm *MultiMap[V], fn func(v *V)) {
	mm.m.Range(func(_ uint64, r *listRef) bool {
		for i := r.head - 1; i >= 0; i = mm.nodes[i].next {
			fn(&mm.nodes[i].v)
		}
		return true
	})
}

// MultiMapState codes mm's full physical state: the key table, the node
// arena (free-chain nodes are zero-valued — Drain and Reset zero released
// values), the free-list head, and the bookkeeping counters. Loading
// replaces mm's contents.
func MultiMapState[V any](c *snapshot.Codec, mm *MultiMap[V], el func(*snapshot.Codec, *V)) {
	MapState(c, &mm.m, func(c *snapshot.Codec, r *listRef) {
		c.I32(&r.head)
		c.I32(&r.tail)
	})
	snapshot.Slice(c, &mm.nodes, func(c *snapshot.Codec, n *mmNode[V]) {
		el(c, &n.v)
		c.I32(&n.next)
	})
	c.I32(&mm.free)
	c.Int(&mm.vals)
	c.Bool(&mm.init)
	if c.Loading() && c.Err() == nil {
		if err := mm.check(); err != nil {
			c.Failf("%v", err)
		}
	}
}

// check rejects a restored multimap whose chains a later Add or Drain
// could not follow: a list or the free chain that leaves the arena, loops
// or shares a node with another chain, a tail that is not its list's last
// node, or a value count that disagrees with the lists.
func (mm *MultiMap[V]) check() error {
	// A never-initialized multimap is all zeros: free head 0, no arena.
	if !mm.init && (len(mm.nodes) != 0 || mm.free != 0) {
		return fmt.Errorf("flatmap: uninitialized multimap with %d nodes and free head %d", len(mm.nodes), mm.free)
	}
	seen := make([]bool, len(mm.nodes))
	walk := func(i int32) (last int32, n int, ok bool) {
		last = -1
		for ; i >= 0; i = mm.nodes[i].next {
			if int(i) >= len(mm.nodes) || seen[i] {
				return 0, 0, false
			}
			seen[i] = true
			last = i
			n++
		}
		return last, n, i == -1
	}
	if _, _, ok := walk(mm.free); mm.init && !ok {
		return fmt.Errorf("flatmap: bad multimap free chain from %d (%d nodes)", mm.free, len(mm.nodes))
	}
	total := 0
	var err error
	mm.m.Range(func(k uint64, r *listRef) bool {
		last, n, ok := walk(r.head - 1)
		if !ok || n == 0 || last != r.tail-1 {
			err = fmt.Errorf("flatmap: bad multimap list %d..%d under key %#x (%d nodes)", r.head, r.tail, k, len(mm.nodes))
			return false
		}
		total += n
		return true
	})
	if err == nil && total != mm.vals {
		err = fmt.Errorf("flatmap: multimap counts %d values, its lists hold %d", mm.vals, total)
	}
	return err
}
