package experiments

import (
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/scheme"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// TestExecuteSpecTwiceIsByteIdentical pins Execute's freshness contract:
// it builds a new workload and system on every call, so one RunSpec value
// executed twice renders byte-identical artifacts — even for a generated
// workload whose frontier-pacing state is per-run. The same spec with a
// StopAt past completion must return that finished Result and no
// snapshot.
func TestExecuteSpecTwiceIsByteIdentical(t *testing.T) {
	gen := workload.Spec{
		BenchName: "paced",
		Buffers: []workload.Buffer{
			{Name: "in", Bytes: 1 << 20, Space: memdef.SpaceGlobal, Pattern: workload.Stream, ReadOnly: true, Weight: 0.7},
			{Name: "table", Bytes: 512 << 10, Space: memdef.SpaceGlobal, Pattern: workload.Random, WriteFrac: 0.3, Weight: 0.3},
		},
		ComputePerMem:   4,
		KernelCount:     2,
		MemInstsPerWarp: 24,
		FrontierWindow:  2,
		Seed:            11,
	}
	tcfg := telemetry.Config{SampleInterval: 500, CaptureEvents: true}
	spec := RunSpec{Config: QuickConfig(), Generated: &gen, Scheme: scheme.SHM, Telemetry: &tcfg}

	render := func(spec RunSpec) (Artifacts, RunOutput) {
		t.Helper()
		out, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		arts, err := Render("execute-test", spec, out)
		if err != nil {
			t.Fatal(err)
		}
		return arts, out
	}
	first, out := render(spec)
	if !out.Result.Completed || out.Snapshot != nil {
		t.Fatalf("run did not complete cleanly (completed=%v, snapshot=%d bytes)", out.Result.Completed, len(out.Snapshot))
	}
	second, _ := render(spec)
	for _, d := range DiffArtifacts("determinism", "first", first, "second", second) {
		t.Error(d)
	}

	late := spec
	late.StopAt = out.Result.Cycles + 1_000_000
	stopped, lateOut := render(late)
	if lateOut.Snapshot != nil {
		t.Errorf("StopAt past completion returned a %d-byte snapshot; want nil", len(lateOut.Snapshot))
	}
	for _, d := range DiffArtifacts("stop-at", "stop-past-end", stopped, "scratch", first) {
		t.Error(d)
	}
}
