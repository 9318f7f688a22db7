package fuzz

import (
	"testing"

	"shmgpu/internal/experiments"
	"shmgpu/internal/gpu"
	"shmgpu/internal/scheme"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// restoreCell is one tiny-base cell whose mid-run snapshot seeds
// FuzzRestore.
type restoreCell struct {
	scheme    string
	accuracy  bool
	telemetry bool
	config    ConfigSpec
}

// restoreCells cover the tier-off MEE, the accuracy trackers with
// telemetry capture, and the host tier with stream prefetch in flight.
var restoreCells = []restoreCell{
	{scheme: "SHM"},
	{scheme: "SHM_upper_bound", accuracy: true, telemetry: true},
	{scheme: "SHM", config: ConfigSpec{OversubPct: 50, UVMPrefetch: "stream"}},
}

func (rc restoreCell) spec(t testing.TB) experiments.RunSpec {
	c := Case{Seed: 1, Config: rc.config, Workload: WorkloadSpec{
		Buffers: []BufferSpec{
			{KB: 64, Pattern: "stream", WriteFrac: 0.25},
			{KB: 32, Pattern: "random", ReadOnly: true, HostCopied: true},
		},
		MemInstsPerWarp: 48,
	}}
	wspec, err := c.workloadSpec()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := scheme.ByName(rc.scheme)
	if err != nil {
		t.Fatal(err)
	}
	sch.Options.TrackAccuracy = rc.accuracy
	spec := experiments.RunSpec{Config: c.GPUConfig(), Generated: &wspec, Scheme: sch}
	if rc.telemetry {
		spec.Telemetry = &telemetry.Config{SampleInterval: 500, CaptureEvents: true}
	}
	return spec
}

// payload captures the cell's state halfway through its scratch run.
func (rc restoreCell) payload(t testing.TB) []byte {
	spec := rc.spec(t)
	scratch, err := experiments.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.StopAt = scratch.Result.Cycles / 2
	out, err := experiments.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Snapshot == nil {
		t.Fatalf("%s cell finished before cycle %d", rc.scheme, spec.StopAt)
	}
	return out.Snapshot
}

// FuzzRestore mutates real mid-run snapshots and restores each into a
// fresh system built for its cell, as experiments.Execute does before
// resuming. A restore must return nil or an error; it must never panic.
func FuzzRestore(f *testing.F) {
	for i, rc := range restoreCells {
		f.Add(uint8(i), rc.payload(f))
	}
	f.Fuzz(func(t *testing.T, cell uint8, payload []byte) {
		spec := restoreCells[int(cell)%len(restoreCells)].spec(t)
		bench, err := workload.New(*spec.Generated)
		if err != nil {
			t.Fatal(err)
		}
		sys := gpu.NewSystem(spec.Config, spec.Scheme.Options)
		if spec.Telemetry != nil {
			sys.AttachTelemetry(telemetry.New(*spec.Telemetry))
		}
		_ = snapshot.Load(payload, func(c *snapshot.Codec) { sys.State(c, bench) })
	})
}
