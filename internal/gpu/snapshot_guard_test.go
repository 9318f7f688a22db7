package gpu

import (
	"strings"
	"testing"

	"shmgpu/internal/snapshot"
)

// TestSaveStateGuards pins the refusal conditions on System.SaveState: a
// system that was never paused mid-kernel (fresh or run to completion) has
// no coherent mid-run state to capture, a cancelled run must never become
// a loadable snapshot (the watchdog kill path), and a workload that cannot
// checkpoint its warp programs is rejected instead of silently captured
// without them.
func TestSaveStateGuards(t *testing.T) {
	wl := &fixedWorkload{bufBytes: 2 << 20, compute: 2, insts: 2000}

	// Never run: nothing is mid-kernel.
	fresh := NewSystem(smallConfig(), baselineOpts())
	if err := fresh.SaveState(snapshot.NewEncoder(), wl); err == nil {
		t.Error("SaveState on a never-run system succeeded; want mid-kernel refusal")
	}

	// Run to completion: the pause window has closed again.
	done := NewSystem(smallConfig(), baselineOpts())
	done.Run(wl)
	if err := done.SaveState(snapshot.NewEncoder(), wl); err == nil {
		t.Error("SaveState on a completed run succeeded; want mid-kernel refusal")
	}

	// Genuinely paused: the non-stateful test workload is rejected by the
	// capture path itself, and a cancel flag raised while paused (the
	// watchdog race) blocks capture outright.
	paused := NewSystem(smallConfig(), baselineOpts())
	if _, finished := paused.RunUntil(wl, 50); finished {
		t.Fatal("workload finished before cycle 50; cannot exercise the paused guards")
	}
	if err := paused.SaveState(snapshot.NewEncoder(), wl); err == nil {
		t.Error("SaveState with a non-stateful workload succeeded; want rejection")
	} else if !strings.Contains(err.Error(), "workload") {
		t.Errorf("non-stateful workload rejection = %v; want it to name the workload", err)
	}
	paused.cancelled = true
	if err := paused.SaveState(snapshot.NewEncoder(), wl); err == nil {
		t.Error("SaveState on a cancelled run succeeded; want refusal")
	} else if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("cancelled-run rejection = %v; want it to say cancelled", err)
	}
}
