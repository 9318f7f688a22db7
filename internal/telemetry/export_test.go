package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"shmgpu/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the exporter golden files")

// goldenCollector builds a small deterministic run: two sampling intervals,
// a few lifecycle events, and populated histograms.
func goldenCollector() (*Collector, RunSummary, Manifest) {
	c := New(Config{SampleInterval: 100, CaptureEvents: true})
	snapAt := func(instr, bytes uint64, pending int) func() Snapshot {
		return func() Snapshot {
			var s Snapshot
			s.Instructions = instr
			s.Traffic.AddRead(stats.TrafficData, bytes)
			s.Traffic.AddRead(stats.TrafficMAC, bytes/16)
			s.L2 = stats.CacheStats{Hits: instr / 10, Misses: instr / 20}
			s.DRAMPending = pending
			return s
		}
	}
	c.MaybeSample(0, snapAt(0, 0, 0))
	c.Emit(Event{Cycle: 10, Kind: EvSMIssue, Unit: 0})
	c.Emit(Event{Cycle: 20, Kind: EvDRAMEnqueue, Part: 1, Value: 4})
	c.Emit(Event{Cycle: 30, Kind: EvDRAMService, Part: 1, Unit: 3, Value: 70})
	c.Emit(Event{Cycle: 90, Kind: EvMEEReadDone, Part: 1, Unit: 0, Value: 60})
	c.Emit(Event{Cycle: 95, Kind: EvMonitorArm, Part: 2, Value: 7})
	c.MaybeSample(100, snapAt(800, 4096, 2))
	c.Emit(Event{Cycle: 150, Kind: EvDetection, Part: 2, Class: 1 | 4, Value: 32})
	c.Emit(Event{Cycle: 180, Kind: EvDetection, Part: 0, Class: 2, Value: 9})
	c.FinishRun(200, snapAt(1500, 8192, 0))

	sum := RunSummary{
		Workload:       "golden",
		Scheme:         "SHM",
		Cycles:         200,
		Instructions:   1500,
		IPC:            7.5,
		Completed:      true,
		BusUtilization: 0.25,
		Caches: []NamedCache{
			{Name: "l1", Stats: stats.CacheStats{Hits: 100, Misses: 50}},
			{Name: "l2", Stats: stats.CacheStats{Hits: 150, Misses: 75, Writebacks: 5}},
		},
	}
	sum.Traffic.AddRead(stats.TrafficData, 8192)
	sum.Traffic.AddRead(stats.TrafficMAC, 512)
	sum.RO.Record(stats.OutcomeCorrect)
	sum.Stream.Record(stats.OutcomeMPInit)
	sum.Counters = []stats.CounterValue{
		{Name: "access_total", Value: 400},
		{Name: "mat_monitored", Value: 12},
	}

	m := Manifest{
		Tool: "test", SchemaVersion: SchemaVersion,
		Workload: "golden", Scheme: "SHM",
		SMs: 4, Partitions: 12, MaxCycles: 1000, SampleInterval: 100,
	}
	return c, sum, m
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden file; run with -update after intentional format changes\ngot:\n%s", name, got)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	c, sum, m := goldenCollector()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c, sum, m); err != nil {
		t.Fatal(err)
	}
	// Must be valid JSON with the expected envelope regardless of golden.
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		OtherData   Manifest                 `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	if parsed.OtherData.Workload != "golden" {
		t.Errorf("manifest not embedded: %+v", parsed.OtherData)
	}
	checkGolden(t, "chrome_trace.golden.json", buf.Bytes())
}

func TestPrometheusGolden(t *testing.T) {
	c, sum, m := goldenCollector()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c, sum, m); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden.prom", buf.Bytes())
}

func TestPrometheusDeterministic(t *testing.T) {
	c, sum, m := goldenCollector()
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, c, sum, m); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, c, sum, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("prometheus output not byte-stable across writes")
	}
}

func TestJSONLValid(t *testing.T) {
	c, sum, m := goldenCollector()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c, sum, m); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var types []string
	for sc.Scan() {
		var rec struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		types = append(types, rec.Type)
	}
	if len(types) < 4 {
		t.Fatalf("too few records: %v", types)
	}
	if types[0] != "manifest" || types[len(types)-1] != "summary" {
		t.Errorf("record order wrong: %v", types)
	}
	nEvents := 0
	for _, ty := range types {
		if ty == "event" {
			nEvents++
		}
	}
	// goldenCollector captures 4 lifecycle events (read-done, arm, 2
	// detections); high-frequency kinds must not appear.
	if nEvents != 4 {
		t.Errorf("got %d event records, want 4", nEvents)
	}
}

// Exporters must tolerate a nil collector (summary-only exports).
func TestExportersNilCollector(t *testing.T) {
	_, sum, m := goldenCollector()
	for name, fn := range map[string]func() error{
		"chrome": func() error { return WriteChromeTrace(&bytes.Buffer{}, nil, sum, m) },
		"prom":   func() error { return WritePrometheus(&bytes.Buffer{}, nil, sum, m) },
		"jsonl":  func() error { return WriteJSONL(&bytes.Buffer{}, nil, sum, m) },
	} {
		if err := fn(); err != nil {
			t.Errorf("%s exporter failed on nil collector: %v", name, err)
		}
	}
}
