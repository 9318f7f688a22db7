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
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestBadFlagExitsTwo(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestUnknownFigureExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, "-fig", "99")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "99") {
		t.Fatalf("stderr should name the unknown figure:\n%s", stderr)
	}
}

func TestUnknownWorkloadExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, "-workloads", "no-such-benchmark")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no-such-benchmark") {
		t.Fatalf("stderr should name the unknown workload:\n%s", stderr)
	}
}

// TestTableIXGolden: Table IX is computed from the paper's hardware
// constants alone (no simulation), so its text output is a stable golden.
func TestTableIXGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fig", "ix")
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"Table IX", "trackers per partition", "5.33 KB", "generated in"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

func TestTableIXJSON(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fig", "ix", "-json")
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr)
	}
	var table struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(stdout), &table); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, stdout)
	}
	if table.Title == "" || len(table.Rows) == 0 {
		t.Fatalf("JSON table incomplete: %+v", table)
	}
}

// TestTinyCellSweep: one figure over one workload on the quick
// configuration — the smallest real simulation the CLI can run — must
// succeed and write the per-figure report file.
func TestTinyCellSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "-fig", "vii", "-quick", "-workloads", "bfs", "-out", dir)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "bfs") {
		t.Fatalf("stdout missing the workload row:\n%s", stdout)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table07_bandwidth_utilization.txt"))
	if err != nil {
		t.Fatalf("per-figure report not written: %v", err)
	}
	if string(data) != stdout[:len(data)] {
		// The report file holds exactly the table text that was printed
		// (stdout additionally carries the timing line).
		t.Fatalf("report file diverges from stdout:\nfile:\n%s\nstdout:\n%s", data, stdout)
	}
}

func TestBadOutDirExitsOne(t *testing.T) {
	// A file where the out directory should be makes MkdirAll fail.
	path := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, "-fig", "ix", "-out", path); code != 1 {
		t.Fatalf("exit with occupied -out dir should be 1")
	}
}

// TestProgressTotalIsExact: the progress total is the number of distinct
// cells the selected figures run, so the final record reaches it exactly.
func TestProgressTotalIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	path := filepath.Join(t.TempDir(), "progress.jsonl")
	code, _, stderr := runCLI(t, "-quick", "-workloads", "atax", "-fig", "ablation-trackers", "-progress-out", path)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last struct {
		Done  int  `json:"done"`
		Total int  `json:"total"`
		Final bool `json:"final"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Final || last.Total == 0 || last.Done != last.Total {
		t.Errorf("final progress record %+v, want done == total > 0", last)
	}
}
