// Package flatmap provides open-addressed hash tables keyed by uint64 for
// the simulator's hot per-cycle lookups (MSHR tables, in-flight DRAM
// transactions, miss-waiter lists), and the index-stable paged Slab that
// holds in-flight records.
//
// The built-in Go map allocates on insert (bucket chains, key/value
// storage) and cannot reuse its memory across a delete/insert cycle, so
// structures like cache.mshrs — which churn through entries every few
// simulated cycles — generated garbage proportional to simulated time.
// Map stores key and value side by side in one slot array, with linear
// probing and backward-shift deletion: once the table has grown to its
// high-water occupancy, insert and delete never allocate again. A slot
// holds key+1, so a zero key word marks it empty and no occupancy flag
// pads the slot.
//
// Determinism: iteration (Range) walks the backing array in slot order.
// That order is a pure function of the insert/delete history, so identical
// runs iterate identically — unlike the built-in map, whose order is
// deliberately randomized. Order-sensitive callers must still sort or
// reduce (the core only uses Range in cold error paths).
//
// The zero value of each type is an empty table ready for use. Not safe
// for concurrent use.
package flatmap

import "unsafe"

// fibMix is the 64-bit golden-ratio constant; the Fibonacci-style mixing
// below gives good dispersion for the address- and token-shaped keys the
// simulator uses (low entropy in the low bits).
const fibMix = 0x9e3779b97f4a7c15

// Map is an open-addressed uint64→V hash table with linear probing. Each
// slot holds its key and value together, so a probe that hits touches one
// slot (one cache line for small values) instead of one element in each of
// two parallel arrays.
//
// The key math.MaxUint64 is reserved: its stored form key+1 would read as
// an empty slot, so Put panics on it. Every caller keys by a sector or
// block address (MSHRs, miss waiters, counter-fetch waiters; the low bits
// are zero) or by an address divided down to an index (diverged counter
// pages), so none can produce it.
type Map[V any] struct {
	slots []slot[V]
	n     int
}

// slot is one table entry. key is the stored key plus one; 0 means empty.
type slot[V any] struct {
	key uint64
	val V
}

// reservedKey is the one key Map cannot store (see Map).
const reservedKey = ^uint64(0)

// SlotBytes returns the size of one Map[V] slot. A table pre-sized for n
// entries holds at least 4n/3 of them.
func SlotBytes[V any]() uintptr { return unsafe.Sizeof(slot[V]{}) }

// NewMap returns a map pre-sized so that sizeHint entries fit without
// growth. A zero Map is also valid and grows on first insert.
func NewMap[V any](sizeHint int) Map[V] {
	var m Map[V]
	if sizeHint > 0 {
		m.rehash(tableSize(sizeHint))
	}
	return m
}

// tableSize returns the smallest power of two holding n entries below the
// 3/4 load-factor ceiling.
func tableSize(n int) int {
	size := 16
	for size*3/4 < n {
		size *= 2
	}
	return size
}

func (m *Map[V]) slot(k uint64) int {
	h := k * fibMix
	h ^= h >> 29
	return int(h & uint64(len(m.slots)-1))
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns a pointer to the value stored under k, or nil if absent. The
// pointer is valid until the next Put, Delete, or Reset.
func (m *Map[V]) Get(k uint64) *V {
	if m.n == 0 {
		return nil
	}
	mask := len(m.slots) - 1
	for i := m.slot(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == 0 {
			return nil
		}
		if s.key == k+1 {
			return &s.val
		}
	}
}

// Has reports whether k is present.
func (m *Map[V]) Has(k uint64) bool { return m.Get(k) != nil }

// Put inserts k with a zero value if absent and returns a pointer to the
// stored value (existing or new). The pointer is valid until the next Put,
// Delete, or Reset. It panics on the reserved key math.MaxUint64.
func (m *Map[V]) Put(k uint64) *V {
	if k == reservedKey {
		panic("flatmap: key math.MaxUint64 is reserved")
	}
	if len(m.slots) == 0 || (m.n+1)*4 > len(m.slots)*3 {
		m.grow()
	}
	mask := len(m.slots) - 1
	for i := m.slot(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == 0 {
			*s = slot[V]{key: k + 1}
			m.n++
			return &s.val
		}
		if s.key == k+1 {
			return &s.val
		}
	}
}

// Delete removes k, reporting whether it was present. Deletion uses
// backward shifting (no tombstones), so probe chains stay short and the
// table never degrades under churn.
func (m *Map[V]) Delete(k uint64) bool {
	if m.n == 0 {
		return false
	}
	mask := len(m.slots) - 1
	i := m.slot(k)
	for {
		if m.slots[i].key == 0 {
			return false
		}
		if m.slots[i].key == k+1 {
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift: pull each following cluster member into the hole if
	// doing so shortens (or keeps) its probe distance.
	j := i
	for {
		j = (j + 1) & mask
		if m.slots[j].key == 0 {
			break
		}
		ideal := m.slot(m.slots[j].key - 1)
		// slots[j] may move into the hole at i only if its ideal slot does
		// not lie strictly inside (i, j] on the probe circle.
		if ((j - ideal) & mask) >= ((j - i) & mask) {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot[V]{}
	m.n--
	return true
}

// Range calls fn for each entry in backing-array slot order (deterministic
// for a deterministic insert/delete history) until fn returns false.
func (m *Map[V]) Range(fn func(k uint64, v *V) bool) {
	for i := range m.slots {
		if s := &m.slots[i]; s.key != 0 {
			if !fn(s.key-1, &s.val) {
				return
			}
		}
	}
}

// Reset removes all entries but keeps the table storage for reuse.
func (m *Map[V]) Reset() {
	if m.n == 0 {
		return
	}
	clear(m.slots)
	m.n = 0
}

func (m *Map[V]) grow() {
	size := 16
	if len(m.slots) > 0 {
		size = len(m.slots) * 2
	}
	m.rehash(size)
}

// rehash moves every entry into a table of size slots: the amortized
// doubling event, not per-access work.
func (m *Map[V]) rehash(size int) {
	old := m.slots
	m.slots = make([]slot[V], size)
	m.n = 0
	for i := range old {
		if old[i].key != 0 {
			*m.Put(old[i].key - 1) = old[i].val
		}
	}
}
