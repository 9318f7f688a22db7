package main

import (
	"math"
	"testing"

	"shmgpu/internal/gpu"
	"shmgpu/internal/stats"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs   []float64
		want summary
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, summary{N: 10, Q1: 2.75, Median: 5.5, Q3: 8.25}},
		{[]float64{5, 1, 4, 2, 3}, summary{N: 5, Q1: 1.5, Median: 3, Q3: 4.5}},
		{[]float64{3, 1, 2}, summary{N: 3, Q1: 1, Median: 2, Q3: 3}},
		{[]float64{1, 2}, summary{N: 2, Q1: 0.75, Median: 1.5, Q3: 2.25}},
		{[]float64{7}, summary{N: 1, Q1: 7, Median: 7, Q3: 7}},
		{nil, summary{}},
	}
	for _, c := range cases {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
	if got := (summary{N: 4, Q1: 9, Median: 10, Q3: 12}).spread(); got != 0.3 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestPassAggregates(t *testing.T) {
	results := []gpu.Result{
		{Instructions: 100, Cycles: 100}, // IPC 1
		{Instructions: 400, Cycles: 100}, // IPC 4
	}
	if got := simIPC(results); math.Abs(got-2) > 1e-12 {
		t.Errorf("simIPC = %v, want the geometric mean 2", got)
	}
	results[0].Traffic.AddRead(stats.TrafficData, 300)
	results[1].Traffic.AddWrite(stats.TrafficData, 100)
	results[1].Traffic.AddRead(stats.TrafficCounter, 40)
	results[0].Traffic.AddRead(stats.TrafficMAC, 10)
	if got := metaBWOverhead(results); math.Abs(got-50.0/400) > 1e-12 {
		t.Errorf("metaBWOverhead = %v, want 50/400", got)
	}
}
