package flatmap

// MultiMap is a uint64→[]V table that preserves FIFO order within each key
// and recycles its list storage. It replaces the core's map[K][]V waiter
// lists (L1 miss waiters, L2 bank waiters, MEE counter-fetch waiters),
// where the old pattern — append to a fresh slice, delete the key on wake —
// allocated a new backing array for almost every miss.
//
// Values are held in a Slab, each key's values chained in order through
// their slab links; drained chains return their elements to the slab, so
// steady-state Add/Drain cycles are allocation-free, and growth adds a
// page without copying the values already held. FIFO order within a key
// is load-bearing for the simulator: waiters must wake in arrival order or
// downstream LRU state (and therefore results) would diverge from the
// every-cycle reference.
type MultiMap[V any] struct {
	m Map[listRef]
	// nodes holds the queued values; a value's slab link names the next
	// value under the same key, -1 ending the list.
	nodes Slab[V]
	vals  int // total queued values across all keys
}

// listRef names a key's list by its first and last value's slab index,
// each stored as index+1 so a fresh (zero) entry reads as empty.
type listRef struct {
	head, tail int32
}

// Add appends v to the FIFO list stored under k.
func (mm *MultiMap[V]) Add(k uint64, v V) {
	idx := mm.nodes.Alloc()
	*mm.nodes.At(idx) = v
	*mm.nodes.Link(idx) = -1
	ref := mm.m.Put(k)
	if ref.head == 0 {
		ref.head = idx + 1
	} else {
		*mm.nodes.Link(ref.tail - 1) = idx
	}
	ref.tail = idx + 1
	mm.vals++
}

// Drain removes the list stored under k, calling fn for each value in FIFO
// (insertion) order, and recycles the slab elements. It reports whether k
// had any waiters.
func (mm *MultiMap[V]) Drain(k uint64, fn func(v V)) bool {
	ref := mm.m.Get(k)
	if ref == nil {
		return false
	}
	head := ref.head - 1
	mm.m.Delete(k)
	var zero V
	for i := head; i >= 0; {
		n := mm.nodes.At(i)
		v := *n
		next := *mm.nodes.Link(i)
		*n = zero // release references for GC
		mm.nodes.Free(i)
		mm.vals--
		fn(v)
		i = next
	}
	return true
}

// Keys returns the number of distinct keys with queued values.
func (mm *MultiMap[V]) Keys() int { return mm.m.Len() }

// Vals returns the total number of queued values.
func (mm *MultiMap[V]) Vals() int { return mm.vals }

// Empty reports whether no values are queued.
func (mm *MultiMap[V]) Empty() bool { return mm.vals == 0 }

// Reset drops all entries but keeps slab pages and table capacity.
func (mm *MultiMap[V]) Reset() {
	mm.m.Reset()
	mm.nodes.Reset()
	mm.vals = 0
}

// Range calls fn once per key in deterministic slot order with that key's
// value count. Intended for cold diagnostics paths only.
func (mm *MultiMap[V]) Range(fn func(k uint64, count int) bool) {
	mm.m.Range(func(k uint64, ref *listRef) bool {
		count := 0
		for i := ref.head - 1; i >= 0; i = *mm.nodes.Link(i) {
			count++
		}
		return fn(k, count)
	})
}
