package gpu

import (
	"strings"
	"testing"

	"shmgpu/internal/snapshot"
)

// save captures sys's state the way experiments.Execute does.
func save(sys *System, wl Workload) error {
	_, err := snapshot.Save(func(c *snapshot.Codec) { sys.State(c, wl) })
	return err
}

// TestSaveStateGuards pins the refusal conditions on saving System.State: a
// system that was never paused mid-kernel (fresh or run to completion) has
// no coherent mid-run state to capture, a cancelled run must never become
// a loadable snapshot (the watchdog kill path), and a workload that cannot
// checkpoint its warp programs is rejected instead of silently captured
// without them.
func TestSaveStateGuards(t *testing.T) {
	wl := &fixedWorkload{bufBytes: 2 << 20, compute: 2, insts: 2000}

	// Never run: nothing is mid-kernel.
	fresh := NewSystem(smallConfig(), baselineOpts())
	if err := save(fresh, wl); err == nil {
		t.Error("SaveState on a never-run system succeeded; want mid-kernel refusal")
	}

	// Run to completion: the pause window has closed again.
	done := NewSystem(smallConfig(), baselineOpts())
	done.Run(wl)
	if err := save(done, wl); err == nil {
		t.Error("SaveState on a completed run succeeded; want mid-kernel refusal")
	}

	// Genuinely paused: the non-stateful test workload is rejected by the
	// capture path itself, and a cancel flag raised while paused (the
	// watchdog race) blocks capture outright.
	paused := NewSystem(smallConfig(), baselineOpts())
	if _, finished := paused.RunUntil(wl, 50); finished {
		t.Fatal("workload finished before cycle 50; cannot exercise the paused guards")
	}
	if err := save(paused, wl); err == nil {
		t.Error("SaveState with a non-stateful workload succeeded; want rejection")
	} else if !strings.Contains(err.Error(), "workload") {
		t.Errorf("non-stateful workload rejection = %v; want it to name the workload", err)
	}
	paused.cancelled = true
	if err := save(paused, wl); err == nil {
		t.Error("SaveState on a cancelled run succeeded; want refusal")
	} else if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("cancelled-run rejection = %v; want it to say cancelled", err)
	}
}

// statefulFixed makes fixedWorkload checkpointable: its warps save their
// cursor and issue count, and the workload has no shared state.
type statefulFixed struct{ *fixedWorkload }

func (statefulFixed) State(*snapshot.Codec) {}

func (w statefulFixed) NewWarp(kernel, sm, warp int) WarpProgram {
	return statefulWarp{w.fixedWorkload.NewWarp(kernel, sm, warp).(*fixedWarp)}
}

type statefulWarp struct{ *fixedWarp }

func (p statefulWarp) State(c *snapshot.Codec) {
	c.U64((*uint64)(&p.cursor))
	c.Int(&p.issued)
}

// TestRestoreRejectsDanglingResponse saves a crossbar response addressed
// to an SM the system does not have. The next tick would index s.sms with
// it, so loading must fail instead.
func TestRestoreRejectsDanglingResponse(t *testing.T) {
	wl := statefulFixed{&fixedWorkload{bufBytes: 2 << 20, compute: 2, insts: 2000}}
	paused := NewSystem(smallConfig(), baselineOpts())
	if _, finished := paused.RunUntil(wl, 50); finished {
		t.Fatal("workload finished before cycle 50")
	}
	restore := func() (*System, error) {
		payload, err := snapshot.Save(func(c *snapshot.Codec) { paused.State(c, wl) })
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewSystem(smallConfig(), baselineOpts())
		return fresh, snapshot.Load(payload, func(c *snapshot.Codec) { fresh.State(c, wl) })
	}
	if _, err := restore(); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	paused.toSM.Push(respEntry{sm: len(paused.sms), at: paused.cycle + 1})
	if fresh, err := restore(); err == nil {
		fresh.Resume(wl)
		t.Error("restore accepted a response for a nonexistent SM")
	}
}
