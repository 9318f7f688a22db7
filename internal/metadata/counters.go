package metadata

import "fmt"

// CounterBlock is the in-memory state of one split-counter block: one major
// counter shared by MinorsPerCounterBlock data blocks plus one 7-bit minor
// counter per data block. When a minor overflows, the major is bumped, all
// minors reset, and every covered block must be re-encrypted under the new
// major (the classic split-counter overflow handling).
type CounterBlock struct {
	Major  uint64
	Minors [MinorsPerCounterBlock]uint8
}

// Seed returns the (major, minor) pair for slot.
func (cb *CounterBlock) Seed(slot int) (major uint64, minor uint16) {
	return cb.Major, uint16(cb.Minors[slot])
}

// Increment advances the minor counter for slot before a write. It reports
// whether the minor overflowed, in which case the major has been bumped and
// ALL minors reset to zero — the caller must re-encrypt every block covered
// by this counter block under the new major counter.
func (cb *CounterBlock) Increment(slot int) (overflowed bool) {
	if cb.Minors[slot] < MinorMax {
		cb.Minors[slot]++
		return false
	}
	cb.Major++
	for i := range cb.Minors {
		cb.Minors[i] = 0
	}
	// The written block starts at 1 so its seed differs from its siblings'.
	cb.Minors[slot] = 1
	return true
}

// String renders a compact summary.
func (cb *CounterBlock) String() string {
	nonzero := 0
	for _, m := range cb.Minors {
		if m != 0 {
			nonzero++
		}
	}
	return fmt.Sprintf("ctr{major=%d, %d/%d minors nonzero}", cb.Major, nonzero, len(cb.Minors))
}
