package shmgpu_test

import (
	"fmt"
	"testing"

	"shmgpu"
	"shmgpu/internal/experiments"
)

// corpusTool stamps the JSONL of the root equivalence corpora, which
// check rows of experiments.Equivalences on named cells.
const corpusTool = "fastforward-test"

// corpusTelemetry is the collector configuration every corpus runs with:
// it samples the timeline and captures lifecycle events, so the
// byte-compare covers counters, histograms, samples and the trace.
var corpusTelemetry = shmgpu.TelemetryConfig{SampleInterval: 500, CaptureEvents: true}

// cellSpec builds the spec of one named corpus cell: cfg, the workload at
// seed, and the named design, under corpusTelemetry.
func cellSpec(t testing.TB, cfg shmgpu.Config, workload, scheme string, seed int64) shmgpu.RunSpec {
	t.Helper()
	sch, err := shmgpu.SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return shmgpu.RunSpec{Config: cfg, Workload: workload, Seed: seed, Scheme: sch, Telemetry: &corpusTelemetry}
}

// corpusCell is one (workload, design, seed) cell of a corpus.
type corpusCell struct {
	workload, scheme string
	seed             int64
}

func (c corpusCell) String() string { return fmt.Sprintf("%s_%s_seed%d", c.workload, c.scheme, c.seed) }

// execute runs spec, failing the test on error.
func execute(t testing.TB, spec shmgpu.RunSpec) shmgpu.RunOutput {
	t.Helper()
	out, err := shmgpu.Execute(spec)
	if err != nil {
		t.Fatalf("run %s/%s seed %d: %v", spec.Workload, spec.Scheme.Name, spec.Seed, err)
	}
	return out
}

// result executes one named cell without telemetry and returns its
// Result: the runs that check semantics rather than bytes.
func result(t testing.TB, cfg shmgpu.Config, workload, scheme string, seed int64) shmgpu.Result {
	t.Helper()
	spec := cellSpec(t, cfg, workload, scheme, seed)
	spec.Telemetry = nil
	return execute(t, spec).Result
}

// checkRow checks one row on base through h, failing the test on every
// divergence.
func checkRow(t *testing.T, h *experiments.Harness, row experiments.Equivalence, base shmgpu.RunSpec) {
	t.Helper()
	ds := row.Check(h, base)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		t.Error(d)
	}
}
