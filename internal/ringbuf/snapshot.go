package ringbuf

import "shmgpu/internal/snapshot"

// Checkpoint/restore for rings. Capacity and head are preserved verbatim
// (elements are coded in logical order and placed back at the same
// physical slots); PopFront zeroes released slots, so the unoccupied part
// of the backing array is zero-valued on both sides of a round trip. Cold
// path only.

// maxRingCap bounds restored capacities so a corrupt capacity field fails
// cleanly instead of driving a huge allocation.
const maxRingCap = 1 << 20

// State codes r, el coding one element. Loading replaces r's contents.
func State[T any](c *snapshot.Codec, r *Ring[T], el func(*snapshot.Codec, *T)) {
	capN, head, n := len(r.buf), r.head, r.n
	c.Int(&capN)
	c.Int(&head)
	c.Int(&n)
	if c.Loading() {
		switch {
		case c.Err() != nil:
			return
		case capN < 0 || capN > maxRingCap || (capN != 0 && capN&(capN-1) != 0):
			c.Failf("ringbuf: bad capacity %d", capN)
			return
		case n < 0 || n > capN || head < 0 || head > capN || (head == capN && capN != 0):
			c.Failf("ringbuf: bad head %d / length %d for capacity %d", head, n, capN)
			return
		}
		*r = Ring[T]{buf: make([]T, capN), head: head, n: n}
	}
	for i := 0; i < r.n; i++ {
		el(c, r.At(i))
	}
}
