// Package testutil is the byte-compare harness shared by the
// equivalence test corpora (fast-forward, checkpoint/fork, UVM
// migration): it runs one instrumented cell and
// renders everything observable about it — the full Result fields, the
// marshaled stats registry, and the telemetry JSONL stream — into a
// directly diffable Artifacts value. Two runs are "byte-identical" in
// the repo's sense exactly when their Artifacts compare equal.
package testutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"shmgpu"
	"shmgpu/internal/telemetry"
)

// Artifacts is everything observable about one run: the rendered Result
// fields, the marshaled stats registry, and the JSONL telemetry stream.
type Artifacts struct {
	Result   string
	Snapshot []byte
	JSONL    []byte
}

// manifestTool is the fixed Manifest.Tool the corpora stamp their JSONL
// with; it predates the extraction of this package and stays unchanged
// so streams remain comparable across the corpora.
const manifestTool = "fastforward-test"

// QuickTelemetry is the collector configuration every corpus runs
// under: a sampled timeline plus captured lifecycle events, so the
// byte-compare covers counters, histograms, samples, and the trace.
func QuickTelemetry() shmgpu.TelemetryConfig {
	return shmgpu.TelemetryConfig{SampleInterval: 500, CaptureEvents: true}
}

// RenderResult renders the Result value fields (the Result carries the
// registry pointer, so the struct itself cannot be compared directly).
func RenderResult(res shmgpu.Result) string {
	return fmt.Sprintf(
		"cycles=%d insts=%d traffic=%+v l1=%+v l2=%+v ctr=%+v mac=%+v bmt=%+v ro=%+v stream=%+v bus=%.9f victim=%d/%d completed=%v",
		res.Cycles, res.Instructions, res.Traffic, res.L1, res.L2,
		res.Ctr, res.MAC, res.BMT, res.ROAccuracy, res.StreamAccuracy,
		res.BusUtilization, res.VictimHits, res.VictimPushes, res.Completed)
}

// Collect renders one finished run (result + collector) into its
// byte-comparable artifact set. cfg must be the configuration the run
// executed under (it stamps the JSONL manifest).
func Collect(t testing.TB, cfg shmgpu.Config, workload, scheme string, seed int64, res shmgpu.Result, col *shmgpu.Collector) Artifacts {
	t.Helper()
	snap, err := json.Marshal(res.Reg.Snapshot())
	if err != nil {
		t.Fatalf("marshaling snapshot: %v", err)
	}
	m := shmgpu.Manifest{
		Tool:          manifestTool,
		SchemaVersion: telemetry.SchemaVersion,
		Workload:      workload,
		Scheme:        scheme,
		SMs:           cfg.SMs,
		Partitions:    cfg.Partitions,
		Seed:          seed,
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, col, shmgpu.Summarize(res), m); err != nil {
		t.Fatalf("writing JSONL: %v", err)
	}
	return Artifacts{Result: RenderResult(res), Snapshot: snap, JSONL: buf.Bytes()}
}

// RunCellCfg executes one instrumented cell under an explicit
// configuration and returns its artifact set. The corpora that sweep
// UVM oversubscription (or any other config axis) enter here.
func RunCellCfg(t testing.TB, cfg shmgpu.Config, workload, scheme string, seed int64) Artifacts {
	t.Helper()
	res, col, err := shmgpu.RunWithTelemetrySeeded(cfg, workload, scheme, seed, QuickTelemetry())
	if err != nil {
		t.Fatalf("run %s/%s seed %d (disableFF=%v): %v",
			workload, scheme, seed, cfg.DisableFastForward, err)
	}
	return Collect(t, cfg, workload, scheme, seed, res, col)
}

// RunCell executes one quick-config cell in the given fast-forward mode —
// the shared artifact collector behind the fast-forward and fork corpora.
func RunCell(t testing.TB, workload, scheme string, seed int64, disableFF bool) Artifacts {
	t.Helper()
	cfg := shmgpu.QuickConfig()
	cfg.DisableFastForward = disableFF
	return RunCellCfg(t, cfg, workload, scheme, seed)
}

// AssertEqual fails the test with a field-by-field diff when the two
// artifact sets differ. aName/bName label the sides in the failure
// output ("fast-forward" vs "every-cycle", "forked" vs "scratch", ...).
func AssertEqual(t testing.TB, aName string, a Artifacts, bName string, b Artifacts) {
	t.Helper()
	if a.Result != b.Result {
		t.Errorf("Result diverges:\n%s: %s\n%s: %s", aName, a.Result, bName, b.Result)
	}
	if !bytes.Equal(a.Snapshot, b.Snapshot) {
		t.Errorf("stats snapshots diverge:\n%s: %s\n%s: %s", aName, a.Snapshot, bName, b.Snapshot)
	}
	if !bytes.Equal(a.JSONL, b.JSONL) {
		t.Errorf("telemetry JSONL diverges (%s: %d bytes, %s: %d bytes)", aName, len(a.JSONL), bName, len(b.JSONL))
	}
}
