package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// staleMarker is a marker of the deleted allocation analyzer, spelled in two
// pieces so the tree itself carries none: shmlint must report it.
const staleMarker = "//shm:" + "alloc-ok"

// writeModule lays out a throwaway module with one clean package and one
// package carrying a //shm: marker nothing reads (a nodeterminism finding)
// and a unit-mixing sum (a unitcheck finding). A _test.go file
// repeats the unit mix; test files are outside the analyzed build, so it
// must stay silent. writeModule chdirs into the module for the duration
// of the test (the driver resolves the module from the working directory).
func writeModule(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module lintme\n\ngo 1.22\n",
		"clean/clean.go": `package clean

type E struct{ n int }

func (e *E) tick() { e.n++ }

var _ = (*E).tick
`,
		"dirty/dirty.go": `package dirty

type E struct{ xs []int }

func (e *E) tick() {
	e.xs = append(e.xs, 1) ` + staleMarker + `
}

var _ = (*E).tick
`,
		"dirty/units.go": `package dirty

func Deadline(latencyCycles, rowBytes uint64) uint64 {
	return latencyCycles + rowBytes
}
`,
		"dirty/units_test.go": `package dirty

func deadlineInTest(latencyCycles, rowBytes uint64) uint64 {
	return latencyCycles + rowBytes
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// capture runs f with *stream redirected to a pipe and returns what it
// wrote alongside its exit code.
func capture(t *testing.T, stream **os.File, f func() int) (string, int) {
	t.Helper()
	old := *stream
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*stream = w
	code := f()
	w.Close()
	*stream = old
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), code
}

func TestExitCodes(t *testing.T) {
	writeModule(t)
	if got := run([]string{"./clean"}); got != 0 {
		t.Errorf("clean package: exit %d, want 0", got)
	}
	if got := run([]string{"./..."}); got != 1 {
		t.Errorf("tree with findings: exit %d, want 1", got)
	}
	if got := run(nil); got != 2 {
		t.Errorf("no arguments: exit %d, want 2", got)
	}
	if got := run([]string{"./nosuch"}); got != 2 {
		t.Errorf("unknown package: exit %d, want 2", got)
	}
	if got := run([]string{"-not-a-flag"}); got != 2 {
		t.Errorf("bad flag: exit %d, want 2", got)
	}
}

func TestJSONOutput(t *testing.T) {
	writeModule(t)
	out, code := capture(t, &os.Stdout, func() int { return run([]string{"-json", "./..."}) })
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("decoding output: %v\n%s", err, out)
	}
	// One finding from each of two analyzers, sorted by file; nothing
	// from units_test.go.
	want := []struct{ analyzer, file string }{
		{"nodeterminism", "dirty/dirty.go"},
		{"unitcheck", "dirty/units.go"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(want), out)
	}
	for i, d := range diags {
		if d.Analyzer != want[i].analyzer || d.File != want[i].file || d.Line == 0 {
			t.Errorf("finding %d = %+v, want %s in %s", i, d, want[i].analyzer, want[i].file)
		}
	}

	out, code = capture(t, &os.Stdout, func() int { return run([]string{"-json", "./clean"}) })
	if code != 0 {
		t.Fatalf("clean: exit %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean run should emit an empty array, got %q", out)
	}
}

func TestGHAOutput(t *testing.T) {
	writeModule(t)
	out, code := capture(t, &os.Stdout, func() int { return run([]string{"-gha", "./..."}) })
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "::error file=dirty/dirty.go,line=") {
		t.Errorf("missing ::error annotation:\n%s", out)
	}
	if !strings.Contains(out, "(nodeterminism)") {
		t.Errorf("annotation should name the analyzer:\n%s", out)
	}
}

func TestHelpListsAnalyzers(t *testing.T) {
	out, code := capture(t, &os.Stderr, func() int { return run([]string{"-h"}) })
	if code != 2 {
		t.Errorf("-h: exit %d, want 2", code)
	}
	for _, a := range analyzers {
		if !strings.Contains(out, a.Name) || !strings.Contains(out, a.Doc) {
			t.Errorf("-h output lacks %s and its doc:\n%s", a.Name, out)
		}
	}
}
