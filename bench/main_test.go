package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"

	"shmgpu/internal/gpu"
	"shmgpu/internal/scheme"
)

func metricsByName(ms []metric) map[string]metric {
	by := map[string]metric{}
	for _, m := range ms {
		by[m.Name] = m
	}
	return by
}

// TestSmokeOneCellOnePass runs a one-cell workload for one round, untraced
// and traced (about 1.5 s in all).
func TestSmokeOneCellOnePass(t *testing.T) {
	w := &benchWorkload{name: "smoke", cells: []cell{{wl: "b+tree", sch: scheme.SHM}}}
	res, err := measure(w, options{seed: 1, seconds: 1, passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 2 || res.Failed != 0 {
		t.Fatalf("warm-up plus one pass: %d attempted, %d failed %v", res.Attempted, res.Failed, res.Failures)
	}
	got := metricsByName(res.Metrics)
	for _, def := range endToEnd {
		if m, ok := got[def.Name]; !ok || !(m.Value > 0) || m.Unit != def.Unit {
			t.Errorf("%s = %+v, want a positive value in %s", def.Name, m, def.Unit)
		}
	}
	if got["setup_s"].N != setupRepeats {
		t.Errorf("setup_s has %d samples, want %d", got["setup_s"].N, setupRepeats)
	}

	res, err = measure(w, options{seed: 1, seconds: 1, passes: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 3 || res.Failed != 0 {
		t.Fatalf("warm-up plus one round: %d attempted, %d failed %v", res.Attempted, res.Failed, res.Failures)
	}
	got = metricsByName(res.Metrics)
	if len(got) != len(perLayer)+len(sparseTimes) {
		t.Errorf("traced run reported %d metrics, want %d", len(got), len(perLayer)+len(sparseTimes))
	}
	var self float64
	for _, l := range layerNames() {
		self += got[l+".self_s"].Value
	}
	if !(self > 0) || !(got["secmem.self_s"].Value > 0) {
		t.Errorf("layer self times sum to %v s, secmem %v s: want both positive", self, got["secmem.self_s"].Value)
	}
	if ticks, cycles := got["gpu.ticks"].Value, got["gpu.cycles"].Value; !(ticks > 0 && ticks <= cycles) {
		t.Errorf("gpu.ticks %v, gpu.cycles %v: want 0 < ticks <= cycles", ticks, cycles)
	}
	if got["phase.kernel_s"].Value <= 0 || got["ns_per_cycle"].Value <= 0 {
		t.Errorf("span times missing: kernel %v s, %v ns per cycle", got["phase.kernel_s"].Value, got["ns_per_cycle"].Value)
	}
}

// TestSweepSmoke runs the sweep path, traced, on the cheapest model: the
// Runner, its pool, the Prometheus dumps, the Fig. 12 check and the tick
// replay.
func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 19 simulations")
	}
	w := &benchWorkload{name: "sweep-smoke", cells: cross([]string{"b+tree"}, fig12Schemes...), sweep: true}
	res, err := measure(w, options{seconds: 1, passes: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up, then the untraced pass, the traced pass and the replay.
	if want := 1 + 3*len(w.cells); res.Attempted != want || res.Failed != 0 {
		t.Fatalf("%d attempted (want %d), %d failed %v", res.Attempted, want, res.Failed, res.Failures)
	}
	got := metricsByName(res.Metrics)
	if got["experiments.cells"].Value != float64(len(w.cells)) {
		t.Errorf("experiments.cells = %v, want %d", got["experiments.cells"].Value, len(w.cells))
	}
	if u := got["experiments.worker_util"].Value; !(u > 0 && u <= 1) {
		t.Errorf("experiments.worker_util = %v, want (0, 1]", u)
	}
	if got["telemetry.export_s"].Value <= 0 || got["gpu.ticks"].Value <= 0 {
		t.Errorf("telemetry.export_s %v, gpu.ticks %v: want both positive", got["telemetry.export_s"].Value, got["gpu.ticks"].Value)
	}
}

func TestCheckerCountsFailedCells(t *testing.T) {
	cells := []cell{{wl: "atax", sch: scheme.Baseline}, {wl: "atax", sch: scheme.SHM}}
	good := func() []gpu.Result {
		return []gpu.Result{
			{Workload: "atax", Scheme: "Baseline", Instructions: 10, Cycles: 5, Completed: true},
			{Workload: "atax", Scheme: "SHM", Instructions: 10, Cycles: 6, Completed: true},
		}
	}
	c := newChecker()
	c.check(cells, good(), nil)
	if len(c.failures) != 0 {
		t.Fatalf("good pass failed: %v", c.failures)
	}

	changed := good()
	changed[0].Cycles++          // differs from its first run
	changed[1].Instructions = 11 // differs from atax/Baseline, and from its first run
	c.check(cells, changed, nil)
	if len(c.failures) != 2 {
		t.Fatalf("want both cells failed, got %v", c.failures)
	}

	incomplete := good()
	incomplete[0].Completed = false
	c.check(cells, incomplete, map[string][]string{"atax/SHM": {"Prometheus dump missing or empty"}})
	if c.attempted != 6 || len(c.failures) != 4 {
		t.Errorf("%d attempted, failures %v: want 6 attempted, 4 failed", c.attempted, c.failures)
	}
}

func TestFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-workload", "nosuch"}, 2},
		{[]string{"-trace", "2"}, 2},
		{[]string{"-seconds", "0"}, 2},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-compare", "only-one.json"}, 2},
		{[]string{"-compare", "missing-a.json", "missing-b.json"}, 1},
	}
	for _, c := range cases {
		if got := run(c.args, io.Discard, io.Discard); got != c.want {
			t.Errorf("run(%q) = %d, want %d", c.args, got, c.want)
		}
	}
}

// TestDefinitionsMatchBenchmarkJSON keeps BENCHMARK.json and the code in
// step: the workloads with their reasons, the metrics with their units,
// directions and bounds, and the run length.
func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n%+v\nwant\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer:\n%+v\nwant\n%+v", bj.PerLayer, perLayer)
	}
}
