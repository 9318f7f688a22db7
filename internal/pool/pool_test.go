package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunExecutesEveryTaskExactlyOnce(t *testing.T) {
	for _, par := range []int{0, 1, 2, 4, 8} {
		p := New(par)
		hits := make([]atomic.Int32, 100)
		tasks := make([]func(), len(hits))
		for i := range tasks {
			i := i
			tasks[i] = func() { hits[i].Add(1) }
		}
		p.Run(tasks)
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("parallelism %d: task %d ran %d times", par, i, n)
			}
		}
		p.Close()
	}
}

func TestRunReusableAcrossBatches(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	for batch := 0; batch < 50; batch++ {
		n := 1 + batch%7 // batches both smaller and larger than parallelism
		tasks := make([]func(), n)
		for i := range tasks {
			tasks[i] = func() { total.Add(1) }
		}
		p.Run(tasks)
	}
	want := int64(0)
	for batch := 0; batch < 50; batch++ {
		want += int64(1 + batch%7)
	}
	if got := total.Load(); got != want {
		t.Fatalf("ran %d tasks across batches, want %d", got, want)
	}
}

func TestRunHappensBefore(t *testing.T) {
	// Results written by tasks must be readable by the coordinator after
	// Run returns without extra synchronization (plain slice writes).
	p := New(8)
	defer p.Close()
	out := make([]int, 64)
	tasks := make([]func(), len(out))
	for i := range tasks {
		i := i
		tasks[i] = func() { out[i] = i * i }
	}
	p.Run(tasks)
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	p := New(4)
	defer p.Close()
	p.Run(nil)
	p.Run([]func(){})
}

func TestParallelism(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {2, 2}, {8, 8}} {
		p := New(tc.in)
		if got := p.Parallelism(); got != tc.want {
			t.Errorf("New(%d).Parallelism() = %d, want %d", tc.in, got, tc.want)
		}
		p.Close()
	}
}

func TestRunSteadyStateAllocFree(t *testing.T) {
	p := New(4)
	defer p.Close()
	var sink atomic.Int64
	tasks := make([]func(), 16)
	for i := range tasks {
		tasks[i] = func() { sink.Add(1) }
	}
	p.Run(tasks) // warm up
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	// One run of 100 batches counts every allocation exactly.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			p.Run(tasks)
		}
	})
	if allocs != 0 {
		t.Fatalf("100 steady-state batches allocate %v times, want 0", allocs)
	}
}
