package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scaled returns base with every value multiplied by f.
func scaled(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * f
	}
	return out
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	ipc := metricDef{Name: "sim_ipc", Better: "higher", Bound: 0.005}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95}
	noisy := []float64{10, 14, 7, 12, 8, 13, 6, 11, 9, 15}
	cases := []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"identical runs", wall, steady, steady, "unchanged"},
		{"bit-identical simulated statistic", ipc, []float64{9.8, 9.8}, []float64{9.8, 9.8}, "unchanged"},
		{"5% faster on every one of 10 pairs", wall, steady, scaled(steady, 0.95), "improved"},
		{"faster on every pair but fewer than 10 pairs", wall, steady[:5], scaled(steady[:5], 0.95), "unchanged"},
		{"5% slower is within the bound", wall, steady, scaled(steady, 1.05), "unchanged"},
		{"20% slower", wall, steady, scaled(steady, 1.2), "regressed"},
		{"spread wider than the bound", wall, noisy, scaled(noisy, 1.02), "unresolved"},
		{"noisy but every change run beats every parent run", wall, noisy, scaled(steady[:5], 0.5), "unchanged"},
		{"higher-is-better metric improved", ipc, steady, scaled(steady, 1.05), "improved"},
		{"higher-is-better metric regressed", ipc, []float64{9.8, 9.8}, []float64{9.7, 9.7}, "regressed"},
		{"one run a side, different", wall, []float64{10}, []float64{10.5}, "unresolved"},
		{"one run a side, bit-identical", ipc, []float64{9.8}, []float64{9.8}, "unchanged"},
	}
	for _, c := range cases {
		if got := judge(c.def, c.parent, c.change).result; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	// write appends three runs to one file.
	write := func(name string, wall float64) string {
		path := filepath.Join(dir, name)
		for _, f := range []float64{1, 1.01, 0.99} {
			rep := runReport{Workloads: []workloadResult{{
				Name:    "lowbw",
				Metrics: []metric{newMetric(endToEnd[0], []float64{wall * f, wall * f * 1.05})},
			}}}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent, same, slow := write("a.json", 4), write("b.json", 4), write("c.json", 6)

	var out strings.Builder
	if n, err := compareFiles(parent, same, &out); err != nil || n != 0 {
		t.Fatalf("same files: %d regressions, err %v", n, err)
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("same files:\n%s", out.String())
	}
	out.Reset()
	if n, err := compareFiles(parent, slow, &out); err != nil || n != 1 {
		t.Fatalf("50%% slower: %d regressions, err %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "0/3") {
		t.Errorf("want no wins in the three pairs of runs:\n%s", out.String())
	}

	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(parent, filepath.Join(dir, "bad.json"), &out); err == nil {
		t.Error("a malformed report compared without error")
	}
}
