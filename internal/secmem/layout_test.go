package secmem

import (
	"testing"
	"unsafe"
)

// TestQueueEntryLayout pins the sizes of the MEE's per-request records (see
// gpu.TestRequestLayout for the 24-byte memdef.Request they embed). If this
// fails, the change is a decision: measure alloc_mb and raise its caps in
// .github/bench-counters.json in the same change, or reorder the fields.
func TestQueueEntryLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"inputEntry", unsafe.Sizeof(inputEntry{}), 32},
		{"txn", unsafe.Sizeof(txn{}), 56},
		{"pendingEntry", unsafe.Sizeof(pendingEntry{}), 24},
		{"outgoing", unsafe.Sizeof(outgoing{}), 32},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d: a wider MEE record raises alloc_mb on every workload (caps in .github/bench-counters.json)", c.name, c.got, c.want)
		}
	}
}
