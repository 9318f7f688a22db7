package gpu

import (
	"testing"
	"unsafe"

	"shmgpu/internal/memdef"
)

// TestRequestLayout pins the sizes of the records that carry a request by
// value from the SM to the MEE. Every crossbar, L2 and MEE queue entry is
// one of them, so a widened field costs heap bytes on every workload. If
// this fails, the change is a decision: measure alloc_mb and raise its caps
// in .github/bench-counters.json in the same change, or reorder the fields.
func TestRequestLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"memdef.Request", unsafe.Sizeof(memdef.Request{}), 24},
		{"smRequest", unsafe.Sizeof(smRequest{}), 16},
		{"xbarEntry", unsafe.Sizeof(xbarEntry{}), 32},
		{"l2Request", unsafe.Sizeof(l2Request{}), 32},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d: a wider request record raises alloc_mb on every workload (caps in .github/bench-counters.json)", c.name, c.got, c.want)
		}
	}
}
