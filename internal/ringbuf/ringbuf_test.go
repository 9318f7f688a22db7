package ringbuf

import (
	"runtime"
	"testing"
)

func TestFIFOOrder(t *testing.T) {
	var r Ring[int]
	if !r.Empty() || r.Len() != 0 {
		t.Fatalf("zero ring not empty")
	}
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		if got := *r.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	for i := 0; i < 100; i++ {
		if got := *r.Front(); got != i {
			t.Fatalf("Front = %d, want %d", got, i)
		}
		if got := r.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if !r.Empty() {
		t.Fatalf("ring not empty after draining")
	}
}

// TestInterleavedWrap pushes and pops at offsets that force the head to
// wrap the backing array many times, and checks FIFO order throughout.
func TestInterleavedWrap(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	for round := 0; round < 500; round++ {
		for i := 0; i < 7; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if got := r.PopFront(); got != expect {
				t.Fatalf("round %d: PopFront = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	for !r.Empty() {
		if got := r.PopFront(); got != expect {
			t.Fatalf("drain: PopFront = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d values, pushed %d", expect, next)
	}
}

func TestClearKeepsCapacity(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 64; i++ {
		r.Push(i)
	}
	r.Clear()
	if !r.Empty() {
		t.Fatalf("Clear left %d elements", r.Len())
	}
	// A full refill within prior capacity must not allocate.
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	// One run of 100 rounds counts every allocation exactly.
	allocs := testing.AllocsPerRun(1, func() {
		for round := 0; round < 100; round++ {
			for i := 0; i < 64; i++ {
				r.Push(i)
			}
			for i := 0; i < 64; i++ {
				r.PopFront()
			}
		}
	})
	if allocs != 0 {
		t.Errorf("100 rounds of steady-state push/pop allocated %v times, want 0", allocs)
	}
}

func TestFrontPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Front on empty ring did not panic")
		}
	}()
	var r Ring[int]
	r.Front()
}
