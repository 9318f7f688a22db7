package experiments

import (
	"testing"

	"shmgpu/internal/scheme"
	"shmgpu/internal/telemetry"
)

// TestHarnessReportsNonNeutralKnob is the table's negative control: a
// row that flips a knob which does change the simulation (L2
// associativity 8 → 4) must report a divergence, so the harness cannot
// be comparing a spec with itself.
func TestHarnessReportsNonNeutralKnob(t *testing.T) {
	base := RunSpec{Config: QuickConfig(), Workload: "bfs", Scheme: scheme.SHM, Telemetry: &telemetry.Config{SampleInterval: 500}}
	base.Config.MaxCycles = 20_000
	l2Ways := Equivalence{"l2-ways", func(h *Harness, base RunSpec) []Divergence {
		fewer := base
		fewer.Config.L2Ways /= 2
		return h.compare("l2-ways", "fewer-ways", fewer, "quick", base)
	}}
	h := NewHarness("equivalence-test")
	ds := l2Ways.Check(h, base)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 || h.Executed != 2 {
		t.Fatalf("halving L2Ways (%d) reported %d divergences over %d runs; want some over 2", base.Config.L2Ways, len(ds), h.Executed)
	}
	for _, d := range ds {
		if d.Oracle != "l2-ways" {
			t.Errorf("divergence labelled %q, want the row's name: %s", d.Oracle, d)
		}
	}
}
