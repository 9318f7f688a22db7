package flatmap

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestAgainstBuiltinMap drives Map with a random op sequence and mirrors
// every operation in a built-in map, checking full agreement after each op.
func TestAgainstBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map[int]
	ref := map[uint64]int{}
	keys := func() []uint64 {
		out := make([]uint64, 0, len(ref))
		for k := range ref {
			out = append(out, k)
		}
		return out
	}
	for op := 0; op < 20000; op++ {
		k := uint64(rng.Intn(512)) * 0x1000 // address-shaped keys: low bits zero
		switch rng.Intn(3) {
		case 0:
			*m.Put(k) = op
			ref[k] = op
		case 1:
			if got, want := m.Delete(k), func() bool { _, ok := ref[k]; return ok }(); got != want {
				t.Fatalf("op %d: Delete(%#x) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 2:
			v := m.Get(k)
			rv, ok := ref[k]
			if (v != nil) != ok {
				t.Fatalf("op %d: Get(%#x) presence = %v, want %v", op, k, v != nil, ok)
			}
			if ok && *v != rv {
				t.Fatalf("op %d: Get(%#x) = %d, want %d", op, k, *v, rv)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
		_ = keys
	}
	// Every surviving key must be retrievable (probe chains intact after
	// the backward-shift deletions above).
	for _, k := range keys() {
		if v := m.Get(k); v == nil || *v != ref[k] {
			t.Fatalf("final: Get(%#x) broken", k)
		}
	}
}

func TestSteadyStateChurnDoesNotAllocate(t *testing.T) {
	m := NewMap[int](64)
	// Warm to high-water occupancy, then churn below it.
	for i := uint64(0); i < 64; i++ {
		*m.Put(i * 64) = int(i)
	}
	for i := uint64(0); i < 64; i++ {
		m.Delete(i * 64)
	}
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	// One run of 100 rounds counts every allocation exactly.
	allocs := testing.AllocsPerRun(1, func() {
		for round := 0; round < 100; round++ {
			for i := uint64(0); i < 64; i++ {
				*m.Put(i * 64) = int(i)
			}
			for i := uint64(0); i < 64; i++ {
				m.Delete(i * 64)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("100 rounds of steady-state put/delete churn allocated %v times, want 0", allocs)
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	var m Map[string]
	for i := uint64(0); i < 100; i++ {
		*m.Put(i) = "x"
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Reset left %d entries", m.Len())
	}
	if m.Get(5) != nil {
		t.Fatalf("Reset left key 5 retrievable")
	}
	*m.Put(7) = "y"
	if v := m.Get(7); v == nil || *v != "y" {
		t.Fatalf("map unusable after Reset")
	}
}

func TestRangeIsDeterministic(t *testing.T) {
	build := func() []uint64 {
		var m Map[int]
		for i := uint64(0); i < 200; i++ {
			*m.Put(i * 0x40) = int(i)
		}
		for i := uint64(0); i < 200; i += 3 {
			m.Delete(i * 0x40)
		}
		var order []uint64
		m.Range(func(k uint64, _ *int) bool {
			order = append(order, k)
			return true
		})
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order diverged at %d: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestMultiMapFIFOAndReuse(t *testing.T) {
	var mm MultiMap[int]
	for round := 0; round < 3; round++ {
		mm.Add(10, 1)
		mm.Add(20, 100)
		mm.Add(10, 2)
		mm.Add(10, 3)
		if mm.Vals() != 4 || mm.Keys() != 2 {
			t.Fatalf("round %d: Vals=%d Keys=%d", round, mm.Vals(), mm.Keys())
		}
		var got []int
		if !mm.Drain(10, func(v int) { got = append(got, v) }) {
			t.Fatalf("round %d: Drain(10) found nothing", round)
		}
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("round %d: Drain order = %v, want [1 2 3]", round, got)
		}
		if mm.Drain(10, func(int) {}) {
			t.Fatalf("round %d: second Drain(10) found stale entries", round)
		}
		got = got[:0]
		mm.Drain(20, func(v int) { got = append(got, v) })
		if len(got) != 1 || got[0] != 100 {
			t.Fatalf("round %d: Drain(20) = %v", round, got)
		}
		if !mm.Empty() {
			t.Fatalf("round %d: not empty after draining", round)
		}
	}
	// Steady-state churn within warmed capacity must not allocate.
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	// One run of 100 rounds counts every allocation exactly.
	allocs := testing.AllocsPerRun(1, func() {
		for round := 0; round < 100; round++ {
			mm.Add(1, 1)
			mm.Add(1, 2)
			mm.Add(2, 3)
			mm.Drain(1, func(int) {})
			mm.Drain(2, func(int) {})
		}
	})
	if allocs != 0 {
		t.Errorf("100 rounds of steady-state multimap churn allocated %v times, want 0", allocs)
	}
}

func TestMultiMapReset(t *testing.T) {
	var mm MultiMap[int]
	mm.Add(1, 1)
	mm.Add(2, 2)
	mm.Reset()
	if !mm.Empty() || mm.Keys() != 0 {
		t.Fatalf("Reset left entries")
	}
	mm.Add(1, 42)
	var got []int
	mm.Drain(1, func(v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("multimap unusable after Reset: %v", got)
	}
}
