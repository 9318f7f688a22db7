package flatmap

import (
	"runtime"
	"testing"
)

// TestSlabStableLIFO checks that growth never moves an element, that
// freed elements are reused last in, first out before the slab grows, and
// that Reset rewinds to index 0 with zeroed elements.
func TestSlabStableLIFO(t *testing.T) {
	var s Slab[int]
	first := s.At(s.Alloc())
	*first = 7
	for i := 1; i < 3*slabPageLen+5; i++ {
		if got := s.Alloc(); got != int32(i) {
			t.Fatalf("fresh Alloc = %d, want %d", got, i)
		}
		*s.At(int32(i)) = i
	}
	if s.At(0) != first || *first != 7 {
		t.Fatal("growth moved element 0")
	}
	for _, i := range []int32{slabPageLen - 1, slabPageLen, 5} {
		s.Free(i)
	}
	for _, want := range []int32{5, slabPageLen, slabPageLen - 1, 3*slabPageLen + 5} {
		if got := s.Alloc(); got != want {
			t.Fatalf("Alloc = %d, want %d (LIFO reuse, then growth)", got, want)
		}
	}
	if s.Len() != 3*slabPageLen+6 {
		t.Fatalf("Len %d, want %d", s.Len(), 3*slabPageLen+6)
	}
	s.Reset()
	if s.Len() != 0 || s.Alloc() != 0 || *s.At(0) != 0 || s.At(0) != first {
		t.Fatal("Reset did not rewind to a zeroed element 0 on the same page")
	}
}

// TestSlabSteadyStateAllocFree: once at its high-water mark, take and
// release never allocate.
func TestSlabSteadyStateAllocFree(t *testing.T) {
	var s Slab[int]
	idx := make([]int32, 200)
	churn := func() {
		for i := range idx {
			idx[i] = s.Alloc()
		}
		for _, i := range idx {
			s.Free(i)
		}
	}
	churn()
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	// One run of 100 rounds counts every allocation exactly.
	if allocs := testing.AllocsPerRun(1, func() {
		for round := 0; round < 100; round++ {
			churn()
		}
	}); allocs != 0 {
		t.Errorf("100 rounds of steady-state slab churn allocated %v times, want 0", allocs)
	}
}

// TestSlotLayout pins the MultiMap key-index slot: the stored key+1
// replaces the occupancy flag, so a {head, tail} slot is 16 bytes, not 24.
func TestSlotLayout(t *testing.T) {
	if got := SlotBytes[listRef](); got != 16 {
		t.Errorf("Map[listRef] slot is %d bytes, want 16", got)
	}
}
