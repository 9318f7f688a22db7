// Package ringbuf provides a growable FIFO ring buffer for the simulator's
// per-cycle queues.
//
// The cycle core used to model its queues as plain slices consumed with
// `q = q[1:]`: correct, but every pop strands one element of the backing
// array, so a queue that stays non-empty forces append to reallocate over
// and over — a steady drip of garbage on a path executed every simulated
// cycle. Ring keeps a head index into a power-of-two backing array instead:
// Push and PopFront are O(1), and once the buffer has grown to a queue's
// high-water mark no further allocation ever happens.
//
// The zero value is an empty ring ready for use. Ring is not safe for
// concurrent use; the simulator core is single-threaded by construction
// (enforced by shmlint's nodeterminism analyzer).
package ringbuf

// Ring is a FIFO queue over a power-of-two circular backing array.
type Ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // number of elements
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Front returns a pointer to the head element without removing it. The
// pointer is valid until the next Push, PopFront, or Clear. Front panics on
// an empty ring.
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		panic("ringbuf: Front on empty ring")
	}
	return &r.buf[r.head]
}

// PopFront removes and returns the head element. It panics on an empty
// ring.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("ringbuf: PopFront on empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // release references for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// At returns a pointer to the i-th element from the head (0 = front). The
// pointer is valid until the next Push, PopFront, or Clear.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("ringbuf: At out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Clear drops all elements but keeps the backing array for reuse.
func (r *Ring[T]) Clear() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = zero
	}
	r.head = 0
	r.n = 0
}

// grow doubles the backing array (minimum 16 slots) and linearizes the
// queue so head restarts at index 0. It is the amortized doubling event,
// not per-access work.
func (r *Ring[T]) grow() {
	newCap := 16
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	nb := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}
