// Package testutil is the byte-compare harness shared by the
// equivalence test corpora (fast-forward, checkpoint/fork, UVM
// migration): it builds and executes one instrumented cell and renders
// everything observable about it — the full Result fields, the marshaled
// stats registry, and the telemetry JSONL stream — into a directly
// diffable experiments.Artifacts value. Two runs are "byte-identical" in
// the repo's sense exactly when their Artifacts compare equal.
package testutil

import (
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
)

// manifestTool is the fixed Manifest.Tool the corpora stamp their JSONL
// with; it predates the extraction of this package and stays unchanged
// so streams remain comparable across the corpora.
const manifestTool = "fastforward-test"

// Spec builds the corpus spec for one named cell: cfg, the workload at
// seed, and the named design, under the collector configuration every
// corpus runs with — a sampled timeline plus captured lifecycle events,
// so the byte-compare covers counters, histograms, samples, and the
// trace.
func Spec(t testing.TB, cfg shmgpu.Config, workload, scheme string, seed int64) shmgpu.RunSpec {
	t.Helper()
	sch, err := shmgpu.SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := shmgpu.TelemetryConfig{SampleInterval: 500, CaptureEvents: true}
	return shmgpu.RunSpec{Config: cfg, Workload: workload, Seed: seed, Scheme: sch, Telemetry: &tcfg}
}

// Execute runs spec, failing the test on error.
func Execute(t testing.TB, spec shmgpu.RunSpec) shmgpu.RunOutput {
	t.Helper()
	out, err := shmgpu.Execute(spec)
	if err != nil {
		t.Fatalf("run %s/%s seed %d (disableFF=%v): %v",
			spec.Workload, spec.Scheme.Name, spec.Seed, spec.Config.DisableFastForward, err)
	}
	return out
}

// Render renders one finished run of spec into its artifact set.
func Render(t testing.TB, spec shmgpu.RunSpec, out shmgpu.RunOutput) experiments.Artifacts {
	t.Helper()
	arts, err := experiments.Render(manifestTool, spec, out)
	if err != nil {
		t.Fatal(err)
	}
	return arts
}

// RunCellCfg executes one instrumented cell under an explicit
// configuration and returns its artifact set. The corpora that sweep
// UVM oversubscription (or any other config axis) enter here.
func RunCellCfg(t testing.TB, cfg shmgpu.Config, workload, scheme string, seed int64) experiments.Artifacts {
	t.Helper()
	spec := Spec(t, cfg, workload, scheme, seed)
	return Render(t, spec, Execute(t, spec))
}

// RunCell executes one quick-config cell in the given fast-forward mode —
// the shared artifact collector behind the fast-forward and fork corpora.
func RunCell(t testing.TB, workload, scheme string, seed int64, disableFF bool) experiments.Artifacts {
	t.Helper()
	cfg := shmgpu.QuickConfig()
	cfg.DisableFastForward = disableFF
	return RunCellCfg(t, cfg, workload, scheme, seed)
}

// AssertEqual fails the test with a field-by-field diff when the two
// artifact sets differ. aName/bName label the sides in the failure
// output ("fast-forward" vs "every-cycle", "forked" vs "scratch", ...).
func AssertEqual(t testing.TB, aName string, a experiments.Artifacts, bName string, b experiments.Artifacts) {
	t.Helper()
	for _, d := range experiments.DiffArtifacts(aName, a, bName, b) {
		t.Error(d)
	}
}

// RunResult executes one named cell without telemetry and returns its
// Result — the probe and semantics runs that need no byte-compare.
func RunResult(t testing.TB, cfg shmgpu.Config, workload, scheme string, seed int64) shmgpu.Result {
	t.Helper()
	spec := Spec(t, cfg, workload, scheme, seed)
	spec.Telemetry = nil
	return Execute(t, spec).Result
}
