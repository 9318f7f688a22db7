package flatmap

import (
	"math/rand"
	"slices"
	"testing"
)

// refMap is the Map layout before slots stored key+1: an explicit
// occupancy flag beside the key. It is the reference for
// TestMapMatchesFlagLayout, which requires the same probe positions and
// so the same Range order.
type refMap[V any] struct {
	slots []refSlot[V]
	n     int
}

type refSlot[V any] struct {
	key  uint64
	used bool
	val  V
}

func (m *refMap[V]) slot(k uint64) int {
	h := k * fibMix
	h ^= h >> 29
	return int(h & uint64(len(m.slots)-1))
}

func (m *refMap[V]) Get(k uint64) *V {
	if m.n == 0 {
		return nil
	}
	mask := len(m.slots) - 1
	for i := m.slot(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.used {
			return nil
		}
		if s.key == k {
			return &s.val
		}
	}
}

func (m *refMap[V]) Put(k uint64) *V {
	if len(m.slots) == 0 || (m.n+1)*4 > len(m.slots)*3 {
		size := 16
		if len(m.slots) > 0 {
			size = len(m.slots) * 2
		}
		old := m.slots
		m.slots = make([]refSlot[V], size)
		m.n = 0
		for i := range old {
			if old[i].used {
				*m.Put(old[i].key) = old[i].val
			}
		}
	}
	mask := len(m.slots) - 1
	for i := m.slot(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if !s.used {
			*s = refSlot[V]{key: k, used: true}
			m.n++
			return &s.val
		}
		if s.key == k {
			return &s.val
		}
	}
}

func (m *refMap[V]) Delete(k uint64) bool {
	if m.n == 0 {
		return false
	}
	mask := len(m.slots) - 1
	i := m.slot(k)
	for {
		if !m.slots[i].used {
			return false
		}
		if m.slots[i].key == k {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if !m.slots[j].used {
			break
		}
		ideal := m.slot(m.slots[j].key)
		if ((j - ideal) & mask) >= ((j - i) & mask) {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = refSlot[V]{}
	m.n--
	return true
}

func (m *refMap[V]) Range(fn func(k uint64, v *V) bool) {
	for i := range m.slots {
		if s := &m.slots[i]; s.used {
			if !fn(s.key, &s.val) {
				return
			}
		}
	}
}

type kv struct {
	k uint64
	v int
}

func rangeOf(rng func(func(uint64, *int) bool)) []kv {
	var out []kv
	rng(func(k uint64, v *int) bool {
		out = append(out, kv{k, *v})
		return true
	})
	return out
}

// TestMapMatchesFlagLayout drives Map and the flag-layout reference with
// one seeded stream of Put, Get and Delete under churn, key 0 included,
// and requires the same answers after every op and the same Range order
// (hence the same probe positions) every few ops.
func TestMapMatchesFlagLayout(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var m Map[int]
		var ref refMap[int]
		key := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return uint64(rng.Intn(8)) // small keys, 0 among them
			case 1:
				return uint64(rng.Intn(1024)) << 5 // sector-shaped
			default:
				return uint64(rng.Intn(300)) << 7 // block-shaped
			}
		}
		for op := 0; op < 30000; op++ {
			k := key()
			switch rng.Intn(5) {
			case 0, 1:
				*m.Put(k) += op
				*ref.Put(k) += op
			case 2:
				if got, want := m.Delete(k), ref.Delete(k); got != want {
					t.Fatalf("seed %d op %d: Delete(%#x) = %v, want %v", seed, op, k, got, want)
				}
			default:
				got, want := m.Get(k), ref.Get(k)
				if (got == nil) != (want == nil) || got != nil && *got != *want {
					t.Fatalf("seed %d op %d: Get(%#x) disagrees with the reference", seed, op, k)
				}
			}
			if m.Len() != ref.n {
				t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, m.Len(), ref.n)
			}
			if op%97 == 0 {
				if got, want := rangeOf(m.Range), rangeOf(ref.Range); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Range order\n got %v\nwant %v", seed, op, got, want)
				}
			}
		}
	}
}

// TestMapReservedKey pins the one key Map cannot store: Put panics on it
// rather than store a slot that reads as empty, and lookups report it
// absent.
func TestMapReservedKey(t *testing.T) {
	var m Map[int]
	for k := uint64(0); k < 40; k++ {
		*m.Put(k) = int(k)
	}
	if m.Get(reservedKey) != nil || m.Has(reservedKey) || m.Delete(reservedKey) {
		t.Fatal("reserved key reported present")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put(math.MaxUint64) did not panic")
		}
		if m.Len() != 40 {
			t.Fatalf("Len %d after the refused Put, want 40", m.Len())
		}
	}()
	m.Put(reservedKey)
}

// TestMultiMapMatchesSliceMap drives MultiMap and a map[uint64][]int with
// one seeded stream of Add, Drain and Reset: every Drain must yield its
// key's values in insertion order, and the counts must agree throughout.
func TestMultiMapMatchesSliceMap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var mm MultiMap[int]
		ref := map[uint64][]int{}
		vals := 0
		for op := 0; op < 30000; op++ {
			k := uint64(rng.Intn(64)) << 5
			switch r := rng.Intn(100); {
			case r < 55:
				mm.Add(k, op)
				ref[k] = append(ref[k], op)
				vals++
			case r < 99:
				var got []int
				found := mm.Drain(k, func(v int) { got = append(got, v) })
				want := ref[k]
				if found != (len(want) > 0) || !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Drain(%#x) = %v (found %v), want %v", seed, op, k, got, found, want)
				}
				vals -= len(want)
				delete(ref, k)
			default:
				mm.Reset()
				clear(ref)
				vals = 0
			}
			if mm.Vals() != vals || mm.Keys() != len(ref) || mm.Empty() != (vals == 0) {
				t.Fatalf("seed %d op %d: Vals %d Keys %d, want %d and %d", seed, op, mm.Vals(), mm.Keys(), vals, len(ref))
			}
		}
		mm.Range(func(k uint64, count int) bool {
			if count != len(ref[k]) {
				t.Fatalf("seed %d: Range(%#x) count %d, want %d", seed, k, count, len(ref[k]))
			}
			return true
		})
	}
}
