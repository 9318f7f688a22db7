package cache

import (
	"testing"
	"unsafe"

	"shmgpu/internal/flatmap"
)

// TestMSHRLayout pins the MSHR entry and its table slot. Every L1, L2 and
// metadata cache pre-sizes its MSHR table at construction, so a wider
// entry costs heap bytes on every cell. If this fails, the change is a
// decision: measure alloc_mb and raise its caps in
// .github/bench-counters.json in the same change, or narrow the field.
func TestMSHRLayout(t *testing.T) {
	if got := unsafe.Sizeof(mshr{}); got != 2 {
		t.Errorf("mshr is %d bytes, want 2", got)
	}
	if got := flatmap.SlotBytes[mshr](); got != 16 {
		t.Errorf("an MSHR table slot is %d bytes, want 16: a wider slot raises alloc_mb on every workload (caps in .github/bench-counters.json)", got)
	}
	if maxMerges > 1<<(8*unsafe.Sizeof(mshr{}.merges))-1 {
		t.Errorf("maxMerges %d does not fit mshr.merges", maxMerges)
	}
}
