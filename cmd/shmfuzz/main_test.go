package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shmgpu/internal/fuzz"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestBadFlag(t *testing.T) {
	code, _, stderr := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
	}
}

func TestNoBound(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-duration") {
		t.Fatalf("stderr should point at the missing bound flags:\n%s", stderr)
	}
}

func TestPositionalArgsRejected(t *testing.T) {
	if code, _, _ := runCLI(t, "-cells", "1", "stray"); code != 2 {
		t.Fatal("stray positional args must be a usage error")
	}
}

func TestCleanCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short")
	}
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "-cells", "2", "-seed", "902", "-corpus", dir, "-q")
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "all oracles green") {
		t.Fatalf("stdout missing green banner:\n%s", stdout)
	}
	if !strings.Contains(stdout, "cells=2") {
		t.Fatalf("stdout missing cell count:\n%s", stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
}

func TestReplayGreenCase(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle battery in -short")
	}
	c := fuzz.CellCase(902, 0)
	data, err := c.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "case.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-replay", path)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "all oracles green") {
		t.Fatalf("stdout = %s", stdout)
	}
}

func TestReplayFindingFile(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle battery in -short")
	}
	// A finding file wraps the case; replay must pick the shrunk repro.
	f := fuzz.Finding{
		Index:  3,
		Shrunk: fuzz.CellCase(902, 1),
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "finding.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-replay", path)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

func TestReplayMissingFile(t *testing.T) {
	if code, _, _ := runCLI(t, "-replay", filepath.Join(t.TempDir(), "nope.json")); code != 2 {
		t.Fatal("missing replay file must be a usage error")
	}
}

func TestReplayGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, "-replay", path); code != 2 {
		t.Fatal("unparseable replay file must be a usage error")
	}
}

func TestReplayUnknownConfigKey(t *testing.T) {
	// A stale or misspelled config or workload key must not replay the
	// tiny base, in a bare case file or in a finding file's shrunk cell.
	for key, cell := range map[string]string{
		"MEE.Trackerz": `{"config": {"MEE.Trackerz": 1}, "workload": {"buffers": [{"bytes": 16384}], "seed": 1}}`,
		"kb":           `{"workload": {"buffers": [{"kb": 64}], "seed": 1}}`,
		"pattrn":       `{"workload": {"buffers": [{"pattrn": "random"}], "seed": 1}}`,
	} {
		for _, data := range []string{cell, `{"index": 3, "shrunk": ` + cell + `}`} {
			path := filepath.Join(t.TempDir(), "case.json")
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if code, stdout, stderr := runCLI(t, "-replay", path); code != 2 || !strings.Contains(stderr, key) {
				t.Fatalf("%s: exit = %d, want 2 naming %q\nstdout: %s\nstderr: %s", data, code, key, stdout, stderr)
			}
		}
	}
}
