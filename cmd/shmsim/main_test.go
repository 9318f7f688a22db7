package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListExitsZero(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "Workloads") || !strings.Contains(out, "SHM") {
		t.Errorf("listing incomplete:\n%s", out)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	code, _, errb := runCLI(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "Usage") {
		t.Errorf("usage not printed on flag error:\n%s", errb)
	}
}

func TestUnknownSchemeExitsTwo(t *testing.T) {
	code, _, errb := runCLI(t, "-scheme", "NoSuchScheme", "-quick")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "-list") {
		t.Errorf("error does not point at -list:\n%s", errb)
	}
}

func TestUnknownWorkloadExitsTwo(t *testing.T) {
	code, _, _ := runCLI(t, "-workload", "no-such-benchmark", "-quick")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestQuickRunWithExports(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	metrics := filepath.Join(dir, "m.prom")
	code, out, errb := runCLI(t,
		"-workload", "fdtd2d", "-scheme", "SHM", "-quick",
		"-trace-out", trace, "-metrics-out", metrics, "-sample-interval", "20000")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(out, "Timeline") {
		t.Errorf("timeline table missing from text output")
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("empty trace")
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "shmgpu_cycles_total") {
		t.Error("metrics dump missing core series")
	}
}

func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	code, out, errb := runCLI(t, "-workload", "fdtd2d", "-scheme", "SHM", "-quick", "-json")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	var parsed struct {
		Manifest struct {
			Tool string `json:"tool"`
		} `json:"manifest"`
		Summary struct {
			Cycles uint64 `json:"cycles"`
		} `json:"summary"`
		Baseline struct {
			NormalizedIPC float64 `json:"normalized_ipc"`
		} `json:"baseline"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, out)
	}
	if parsed.Manifest.Tool != "shmsim" || parsed.Summary.Cycles == 0 {
		t.Errorf("JSON summary incomplete: %+v", parsed)
	}
	if parsed.Baseline.NormalizedIPC <= 0 || parsed.Baseline.NormalizedIPC > 1.5 {
		t.Errorf("normalized IPC = %v", parsed.Baseline.NormalizedIPC)
	}
}

func TestBadOutputPathExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	code, _, errb := runCLI(t,
		"-workload", "fdtd2d", "-scheme", "SHM", "-quick",
		"-metrics-out", filepath.Join(t.TempDir(), "no", "such", "dir", "m.prom"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errb)
	}
}

// TestAccuracyRunKeepsTelemetry: -accuracy runs the requested cell like
// any other, so its exports carry the full telemetry and the accuracy
// table still prints.
func TestAccuracyRunKeepsTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	metrics := filepath.Join(t.TempDir(), "m.prom")
	code, out, errb := runCLI(t, "-workload", "atax", "-scheme", "SHM", "-quick", "-accuracy", "-metrics-out", metrics)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(out, "Predictor accuracy") {
		t.Errorf("accuracy table missing from text output:\n%s", out)
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "_bucket{le=") {
		t.Error("metrics dump has no histogram series")
	}
}

// TestAccuracyAbsentPredictorIsDash: Naive has neither predictor, so both
// accuracy rows have 0 predictions and must read "-", not a perfect score.
func TestAccuracyAbsentPredictorIsDash(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	code, out, errb := runCLI(t, "-workload", "atax", "-scheme", "Naive", "-quick", "-accuracy")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errb)
	}
	table := out[strings.Index(out, "Predictor accuracy"):]
	for _, row := range []string{"read-only", "streaming"} {
		i := strings.Index(table, row)
		if i < 0 {
			t.Fatalf("accuracy table has no %s row:\n%s", row, table)
		}
		line := table[i:]
		line = line[:strings.IndexByte(line, '\n')]
		if f := strings.Fields(line); len(f) != 3 || f[1] != "0" || f[2] != "-" {
			t.Errorf("%s row = %q, want 0 predictions and accuracy -", row, line)
		}
	}
}

// TestHostTierFlagErrorsExitTwo: a host-tier knob without -host-tier, or a
// page size outside [4 KiB, 2 MiB], is a usage error.
func TestHostTierFlagErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-page-bytes", "16384"},
		{"-oversub-ratio", "0.5"},
		{"-prefetch", "stream"},
		{"-host-tier", "-oversub-ratio", "0.5", "-page-bytes", "1"},
		{"-host-tier", "-oversub-ratio", "0.5", "-page-bytes", "4194304"},
	} {
		code, _, errb := runCLI(t, append([]string{"-workload", "atax", "-quick", "-q"}, args...)...)
		if code != 2 {
			t.Errorf("%v: exit = %d, want 2; stderr:\n%s", args, code, errb)
		}
	}
}
