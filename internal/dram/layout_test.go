package dram

import (
	"testing"
	"unsafe"
)

// TestCompletionLayout pins the in-flight record at 16 bytes: the ring holds
// one per issued request until its transfer ends, which under saturation is
// hundreds per channel. If this fails, the change is a decision: measure
// alloc_mb and raise its caps in .github/bench-counters.json in the same
// change, or keep the record to what a completion reads.
func TestCompletionLayout(t *testing.T) {
	if got := unsafe.Sizeof(completion{}); got != 16 {
		t.Errorf("completion is %d bytes, want 16: a wider in-flight record raises alloc_mb on every workload (caps in .github/bench-counters.json)", got)
	}
}
