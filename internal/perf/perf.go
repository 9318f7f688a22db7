// Package perf is the simulator's benchmark harness: it measures wall time
// and allocation rates of simulation cells, persists them as a
// machine-readable baseline (BENCH_*.json), renders them in Go's standard
// benchmark format so benchstat can compare two baselines, and diffs a fresh
// measurement against a committed baseline with tolerances.
//
// Allocation counts are deterministic for this simulator (the hot path is
// allocation-free by construction, and the remaining allocations depend only
// on the workload), so alloc regressions are compared on every run. Wall
// time depends on the machine, so time regressions are only checked when the
// caller opts in (e.g. a CI runner benchmarking against a baseline produced
// on the same hardware class).
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// SchemaVersion identifies the baseline file layout.
const SchemaVersion = 1

// Benchmark is one measured cell.
type Benchmark struct {
	// Name is the cell identifier, e.g. "run/atax/SHM". The Go-bench
	// rendering prefixes it with "Benchmark".
	Name string `json:"name"`
	// Iterations is how many times the cell body ran.
	Iterations int `json:"iterations"`
	// NsPerOp is wall nanoseconds per iteration.
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per iteration.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per iteration.
	BytesPerOp int64 `json:"bytes_per_op"`
}

// Baseline is one benchmark session: environment, total sweep wall time,
// and the per-cell measurements.
type Baseline struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	// NumCPU and GOMAXPROCS describe the machine the numbers were taken
	// on; wall times from a 1-CPU runner and a 16-core workstation are
	// not comparable, so the baseline states which it was. (Both are
	// omitted from pre-existing files; 0 means "not recorded".)
	NumCPU     int `json:"num_cpu,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Quick records whether the scaled-down configuration was used.
	Quick bool `json:"quick"`
	// TotalWallNs is the wall time of the whole sweep, including cells.
	TotalWallNs int64       `json:"total_wall_ns"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// New returns a Baseline stamped with the current environment.
func New(quick bool) *Baseline {
	return &Baseline{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Quick:         quick,
	}
}

// Measure runs fn iters times and returns the cell measurement. A GC runs
// before the timed region so prior garbage is not attributed to the cell;
// allocation counts come from the runtime's monotonic malloc counters.
//
// The counters are process-wide, so Measure runs with GOMAXPROCS pinned to
// 1, as testing.AllocsPerRun does. With more Ps, restarting the world after
// ReadMemStats can start an OS thread for an idle P; the runtime's five
// allocations for that thread (its m, g0, signal stack and profiling
// stacks) then land in the window, more often on a loaded machine. fn
// runs on that one P, so it must be single-threaded, as the simulator
// core is.
func Measure(name string, iters int, fn func()) Benchmark {
	if iters <= 0 {
		iters = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	startMallocs, startBytes := ms.Mallocs, ms.TotalAlloc
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	n := int64(iters)
	return Benchmark{
		Name:        name,
		Iterations:  iters,
		NsPerOp:     elapsed.Nanoseconds() / n,
		AllocsPerOp: int64(ms.Mallocs-startMallocs) / n,
		BytesPerOp:  int64(ms.TotalAlloc-startBytes) / n,
	}
}

// Add appends a cell to the baseline.
func (b *Baseline) Add(bm Benchmark) { b.Benchmarks = append(b.Benchmarks, bm) }

// WriteFile persists the baseline as indented JSON.
func WriteFile(path string, b *Baseline) error {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadFile loads a baseline and validates its schema version.
func ReadFile(path string) (*Baseline, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	if b.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("perf: %s has schema version %d, this build understands %d", path, b.SchemaVersion, SchemaVersion)
	}
	return &b, nil
}

// FormatGoBench renders the baseline in Go's standard benchmark output
// format, so two baselines can be diffed with benchstat:
//
//	benchstat <(old.FormatGoBench) <(new.FormatGoBench)
func (b *Baseline) FormatGoBench() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "goos: %s\ngoarch: %s\n", b.GOOS, b.GOARCH)
	if b.NumCPU > 0 {
		fmt.Fprintf(&sb, "cpu: %d logical CPUs, GOMAXPROCS=%d\n", b.NumCPU, b.GOMAXPROCS)
	}
	for _, bm := range b.Benchmarks {
		name := bm.Name
		if !strings.HasPrefix(name, "Benchmark") {
			name = "Benchmark" + name
		}
		fmt.Fprintf(&sb, "%s %d %d ns/op %d B/op %d allocs/op\n",
			name, bm.Iterations, bm.NsPerOp, bm.BytesPerOp, bm.AllocsPerOp)
	}
	return sb.String()
}

// Tolerance bounds the acceptable growth of a metric between two baselines.
type Tolerance struct {
	// AllocFrac is the allowed fractional increase in allocs/op (0.05 =
	// +5%). Always checked.
	AllocFrac float64
	// TimeFrac is the allowed fractional increase in ns/op. Negative
	// disables the time check (the default for cross-machine comparisons).
	TimeFrac float64
}

// Regression is one metric of one cell that exceeded its tolerance.
type Regression struct {
	Name   string
	Metric string // "allocs/op", "ns/op", or "missing"
	Old    int64
	New    int64
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline but not measured", r.Name)
	}
	return fmt.Sprintf("%s: %s %d -> %d (%+.1f%%)", r.Name, r.Metric, r.Old, r.New, 100*frac(r.Old, r.New))
}

func frac(old, new int64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return float64(new-old) / float64(old)
}

// Compare diffs cur against base and returns the regressions, sorted by
// cell name. Cells present only in cur are new coverage, not regressions;
// cells present only in base are reported as missing.
func Compare(base, cur *Baseline, tol Tolerance) []Regression {
	curBy := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, bm := range cur.Benchmarks {
		curBy[bm.Name] = bm
	}
	var out []Regression
	for _, old := range base.Benchmarks {
		now, ok := curBy[old.Name]
		if !ok {
			out = append(out, Regression{Name: old.Name, Metric: "missing"})
			continue
		}
		if frac(old.AllocsPerOp, now.AllocsPerOp) > tol.AllocFrac {
			out = append(out, Regression{Name: old.Name, Metric: "allocs/op", Old: old.AllocsPerOp, New: now.AllocsPerOp})
		}
		if tol.TimeFrac >= 0 && frac(old.NsPerOp, now.NsPerOp) > tol.TimeFrac {
			out = append(out, Regression{Name: old.Name, Metric: "ns/op", Old: old.NsPerOp, New: now.NsPerOp})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}
