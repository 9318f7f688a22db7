package stats

import (
	"testing"
	"testing/quick"
)

func TestTrafficAccounting(t *testing.T) {
	var tr Traffic
	tr.AddRead(TrafficData, 128)
	tr.AddWrite(TrafficData, 32)
	tr.AddRead(TrafficCounter, 32)
	tr.AddRead(TrafficMAC, 32)
	tr.AddWrite(TrafficBMT, 32)
	tr.AddRead(TrafficMispredict, 64)

	if got := tr.DataBytes(); got != 160 {
		t.Errorf("DataBytes = %d, want 160", got)
	}
	if got := tr.MetadataBytes(); got != 160 {
		t.Errorf("MetadataBytes = %d, want 160", got)
	}
	if got := tr.TotalBytes(); got != 320 {
		t.Errorf("TotalBytes = %d, want 320", got)
	}
	if got := tr.OverheadRatio(); got != 1.0 {
		t.Errorf("OverheadRatio = %v, want 1.0", got)
	}
}

func TestTrafficOverheadZeroData(t *testing.T) {
	var tr Traffic
	tr.AddRead(TrafficMAC, 64)
	if got := tr.OverheadRatio(); got != 0 {
		t.Errorf("OverheadRatio with no data = %v, want 0", got)
	}
}

func TestTrafficMerge(t *testing.T) {
	var a, b Traffic
	a.AddRead(TrafficData, 100)
	b.AddRead(TrafficData, 50)
	b.AddWrite(TrafficMAC, 8)
	a.Merge(&b)
	if a.DataBytes() != 150 || a.Bytes(TrafficMAC) != 8 {
		t.Errorf("merge wrong: data=%d mac=%d", a.DataBytes(), a.Bytes(TrafficMAC))
	}
}

func TestTrafficClassString(t *testing.T) {
	want := map[TrafficClass]string{
		TrafficData: "data", TrafficCounter: "counter", TrafficMAC: "mac",
		TrafficBMT: "bmt", TrafficMispredict: "mispredict",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestCacheStats(t *testing.T) {
	var c CacheStats
	c.Hits = 90
	c.Misses = 10
	if got := c.MissRate(); got != 0.1 {
		t.Errorf("MissRate = %v, want 0.1", got)
	}
	if got := c.Accesses(); got != 100 {
		t.Errorf("Accesses = %d, want 100", got)
	}
	var empty CacheStats
	if empty.MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
	var d CacheStats
	d.Hits = 10
	d.Writebacks = 2
	c.Merge(&d)
	if c.Hits != 100 || c.Writebacks != 2 {
		t.Errorf("merge wrong: %+v", c)
	}
}

func TestPredictorStats(t *testing.T) {
	var p PredictorStats
	for i := 0; i < 89; i++ {
		p.Record(OutcomeCorrect)
	}
	for i := 0; i < 10; i++ {
		p.Record(OutcomeMPInit)
	}
	p.Record(OutcomeMPAliasing)
	if p.Total() != 100 {
		t.Fatalf("Total = %d", p.Total())
	}
	if got := p.Accuracy(); got != 0.89 {
		t.Errorf("Accuracy = %v, want 0.89", got)
	}
	if got := p.Fraction(OutcomeMPInit); got != 0.10 {
		t.Errorf("Fraction(MP_Init) = %v, want 0.10", got)
	}
	var empty PredictorStats
	if empty.Accuracy() != 1 {
		t.Error("empty predictor accuracy should be 1")
	}
}

func TestPredictorOutcomeLabels(t *testing.T) {
	if OutcomeMPRuntimeNonRO.String() != "MP_Runtime_Non_Read_Only" {
		t.Errorf("got %q", OutcomeMPRuntimeNonRO.String())
	}
	if OutcomeCorrect.String() != "Correct-Prediction" {
		t.Errorf("got %q", OutcomeCorrect.String())
	}
}

// Handles the registry tests increment. They live in the stats test
// binary's own table, which no simulator package shares.
var (
	ctrA      = NewCounter("a")
	ctrB      = NewCounter("b")
	ctrC      = NewCounter("c")
	ctrAlpha  = NewCounter("alpha")
	ctrMidway = NewCounter("midway")
	ctrZeta   = NewCounter("zeta")
)

func TestRegistry(t *testing.T) {
	var r Registry
	r.Inc(ctrA)
	r.Add(ctrB, 5)
	r.Inc(ctrA)
	if r.Get("a") != 2 || r.Get("b") != 5 || r.Get("missing") != 0 {
		t.Errorf("registry values wrong: %s", r.String())
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	var r2 Registry
	r2.Add(ctrA, 3)
	r2.Add(ctrC, 1)
	r.Merge(&r2)
	if r.Get("a") != 5 || r.Get("c") != 1 {
		t.Errorf("merge wrong: %s", r.String())
	}
}

func TestTrafficFractionsSumProperty(t *testing.T) {
	// Property: metadata + data == total for arbitrary byte additions.
	f := func(reads, writes [5]uint16) bool {
		var tr Traffic
		for i := 0; i < NumTrafficClasses; i++ {
			tr.AddRead(TrafficClass(i), uint64(reads[i]))
			tr.AddWrite(TrafficClass(i), uint64(writes[i]))
		}
		return tr.DataBytes()+tr.MetadataBytes() == tr.TotalBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorMerge(t *testing.T) {
	var a, b PredictorStats
	a.Record(OutcomeCorrect)
	b.Record(OutcomeMPRuntimeRO)
	b.Record(OutcomeCorrect)
	a.Merge(&b)
	if a.Total() != 3 || a.Counts[OutcomeMPRuntimeRO] != 1 {
		t.Errorf("merge wrong: %+v", a)
	}
}

func TestRegistrySnapshotSortedAndComplete(t *testing.T) {
	var r Registry
	r.Add(ctrZeta, 3)
	r.Add(ctrAlpha, 1)
	r.Inc(ctrMidway)
	r.Add(ctrAlpha, 1)
	snap := r.Snapshot()
	want := []CounterValue{{"alpha", 2}, {"midway", 1}, {"zeta", 3}}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), len(want))
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, snap[i], want[i])
		}
	}
	// Empty registry yields an empty (non-nil-safe-to-range) slice.
	var empty Registry
	if len(empty.Snapshot()) != 0 {
		t.Error("empty registry snapshot not empty")
	}
}
