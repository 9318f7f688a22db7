package fuzz

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/workload"
)

// TestGenerateValid: every generated cell must be runnable — the shrinker
// and the campaign both rely on the generator never leaving the valid
// space.
func TestGenerateValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		c := Generate(rand.New(rand.NewSource(seed)))
		if err := c.Validate(); err != nil {
			data, _ := json.Marshal(c)
			t.Fatalf("seed %d generated invalid case: %v\n%s", seed, err, data)
		}
	}
}

// TestGenerateDeterministic: the same source state must always yield the
// same cell, or campaign findings stop being replayable by (seed, index).
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := Generate(rand.New(rand.NewSource(seed)))
		b := Generate(rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestCaseRoundTrip: the replayable JSON must survive a marshal/load
// cycle unchanged — a shrunk repro that loads differently is worthless.
func TestCaseRoundTrip(t *testing.T) {
	c := Generate(rand.New(rand.NewSource(7)))
	data, err := c.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "case.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCase(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip changed the case:\nwant %+v\ngot  %+v", c, got)
	}
}

// TestCaseDefaults: a zero-delta case must materialize the tiny base.
func TestCaseDefaults(t *testing.T) {
	c := Case{Workload: workload.Spec{Seed: 1, Buffers: []workload.Buffer{{}}}}
	if cfg, err := c.GPUConfig(); err != nil || cfg != baseConfig() {
		t.Fatalf("base config not applied: %+v (err %v)", cfg, err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("tiny base case invalid: %v", err)
	}
	if got := c.SchemeNames(); !reflect.DeepEqual(got, DefaultSchemes) {
		t.Fatalf("default schemes = %v", got)
	}
}

// TestCheckCaseGreen: the oracle battery must pass on a sample of
// generated cells — these are the exact oracles the campaign runs.
func TestCheckCaseGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle battery in -short")
	}
	for seed := int64(0); seed < 4; seed++ {
		c := CellCase(900, int(seed))
		vs, err := CheckCase(c)
		if err != nil {
			t.Fatalf("cell %d invalid: %v", seed, err)
		}
		for _, v := range vs {
			t.Errorf("cell %d: %s", seed, v)
		}
	}
}

// TestCheckCaseGreenUVM runs the battery over hand-picked host-tier
// cells on both sides of the fit boundary: the oversubscribed cells
// push fault/replay/eviction traffic through every equivalence oracle
// (fast-forward, determinism, sanitizer) plus the
// migration-equivalence oracle's forced ratio-1.0 comparison, at half
// and a quarter of the working set on 4 KiB pages; the 100% cell sits
// exactly on the boundary where the tier must be invisible.
func TestCheckCaseGreenUVM(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle battery in -short")
	}
	cells := []Case{
		{Config: deltaOf("HostTier", true, "OversubRatio", 0.5, "UVMPageBytes", 4<<10),
			Workload: workload.Spec{BenchName: "uvm-lru-rebuild", Seed: 7, Buffers: []workload.Buffer{
				{Bytes: 32 << 10, Pattern: workload.Random}, {Bytes: 16 << 10, WriteFrac: 0.5}}}},
		{Config: deltaOf("HostTier", true, "OversubRatio", 0.25, "UVMPageBytes", 4<<10),
			Workload: workload.Spec{BenchName: "uvm-quarter-4k", Seed: 8, Buffers: []workload.Buffer{
				{Bytes: 48 << 10, ReadOnly: true, HostCopied: true}, {Bytes: 16 << 10, WriteFrac: 1.0}}}},
		{Config: deltaOf("HostTier", true, "OversubRatio", 1),
			Workload: workload.Spec{BenchName: "uvm-fit-boundary", Seed: 9, Buffers: []workload.Buffer{{Bytes: 32 << 10}}}},
	}
	for _, c := range cells {
		c := c
		t.Run(c.Workload.BenchName, func(t *testing.T) {
			vs, err := CheckCase(c)
			if err != nil {
				t.Fatalf("cell invalid: %v", err)
			}
			for _, v := range vs {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestCheckCaseRunCount pins the battery's simulation budget on a
// tier-off cell under the four default designs: 8 fast-forward and
// every-cycle runs, 1 determinism rerun, 1 sanitized run, 1 run at fit
// (the tier-off side is the base), 2 prefetch runs at fit and 1 ablated
// SHM run (PSSM is already run).
func TestCheckCaseRunCount(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle battery in -short")
	}
	c := Case{Workload: workload.Spec{Seed: 3, Buffers: []workload.Buffer{{Bytes: 32 << 10, Pattern: workload.Random, WriteFrac: 0.3}}}}
	vs, runs, err := c.check(DefaultCheckOptions())
	if err != nil || runs != 14 || len(vs) != 0 {
		t.Fatalf("battery ran %d simulations (want 14), err %v, violations %v", runs, err, vs)
	}
}

// TestShrinkKnownBad: the acceptance-bar test — a seeded known-bad case
// (a stand-in defect triggered by a random-pattern buffer together with a
// non-default detector window, so the shrinker has real work in both the
// workload and config dimensions) must shrink to the minimal repro,
// deterministically, and the repro must serialize small enough to commit
// (≤ 20 lines of JSON).
func TestShrinkKnownBad(t *testing.T) {
	// A deliberately bloated case that trips the synthetic defect.
	big := Case{
		Config: deltaOf(
			"SMs", 4, "WarpsPerSM", 8, "Partitions", 4, "L2BanksPerPartition", 2,
			"L2BankBytes", 32<<10, "L1Bytes", 8<<10, "L1MSHRs", 4, "L2MSHRs", 8,
			"XbarQueueDepth", 4, "MaxWarpInflightSectors", 16, "DeviceMemoryBytes", 16<<20,
			"MaxCycles", 80_000, "DRAM.QueueDepth", 4, "DRAM.Banks", 8,
			"MEE.CacheBytes", 1024, "MEE.Trackers", 4, "MEE.WindowAccesses", 33,
			"MEE.TimeoutCycles", 999, "MEE.MonitorLead", 8, "MEE.ReadOnlyEntries", 8,
			"MEE.StreamingEntries", 8, "MEE.InputQueue", 8, "MEE.IssuePerCycle", 1),
		Workload: workload.Spec{
			BenchName: "bloated", Seed: 987654321,
			KernelCount: 3, MemInstsPerWarp: 64, ComputePerMem: 8, FrontierWindow: 8,
			RewriteInputs: true, UseResetAPI: true,
			Buffers: []workload.Buffer{
				{Name: "a", Bytes: 256 << 10, Pattern: workload.Random, WriteFrac: 0.5, Weight: 2, HostCopied: true},
				{Name: "b", Bytes: 64 << 10, Pattern: workload.Stencil, ReadOnly: true, HostCopied: true},
				{Name: "c", Bytes: 128 << 10, Pattern: workload.Gather, Space: memdef.SpaceTexture, WriteFrac: 0.2},
			},
		},
		Schemes: []string{"Baseline", "Naive", "PSSM", "SHM", "SHM_cctr"},
	}
	pred := func(c Case) bool {
		if c.Validate() != nil {
			return false
		}
		hasRandom := false
		for _, b := range c.Workload.Buffers {
			hasRandom = hasRandom || b.Pattern == workload.Random
		}
		_, window := c.Config["MEE.WindowAccesses"]
		return hasRandom && window
	}
	if !pred(big) {
		t.Fatal("seed case must fail the predicate")
	}

	min1, attempts1 := Shrink(big, pred, 0)
	min2, attempts2 := Shrink(big, pred, 0)
	if !reflect.DeepEqual(min1, min2) || attempts1 != attempts2 {
		t.Fatalf("shrinking is not deterministic:\n%+v (%d attempts)\n%+v (%d attempts)",
			min1, attempts1, min2, attempts2)
	}
	if !pred(min1) {
		t.Fatal("shrunk case no longer fails the predicate")
	}

	// Minimality: both trigger conditions survive and nothing else does.
	if len(min1.Workload.Buffers) != 1 {
		t.Fatalf("shrunk case keeps %d buffers, want 1: %+v", len(min1.Workload.Buffers), min1)
	}
	if min1.Workload.Buffers[0].Pattern != workload.Random {
		t.Fatalf("shrunk buffer lost the trigger pattern: %+v", min1.Workload.Buffers[0])
	}
	if _, ok := min1.Config["MEE.WindowAccesses"]; !ok || len(min1.Config) != 1 {
		t.Fatalf("shrunk config keeps %v, want only the trigger window", min1.Config.paths())
	}
	if len(min1.Schemes) != 1 {
		t.Fatalf("shrunk case keeps %d schemes, want 1: %v", len(min1.Schemes), min1.Schemes)
	}
	if min1.Workload.BenchName != "" || min1.Workload.RewriteInputs || min1.Workload.KernelCount != 0 {
		t.Fatalf("shrunk case keeps irrelevant workload fields: %+v", min1)
	}

	// Committable size: the acceptance bar is ≤ 20 lines of JSON.
	data, err := min1.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")) + 1; lines > 20 {
		t.Fatalf("shrunk repro is %d lines, want <= 20:\n%s", lines, data)
	}
}

// TestShrinkOracleDriven: shrinking against the real oracle battery, made
// to fail by an impossible tolerance, must stay inside the valid-case
// space and keep failing the same oracle. This exercises the exact
// campaign path (OracleFails over CheckCaseOpts).
func TestShrinkOracleDriven(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle battery in -short")
	}
	// A negative metadata tolerance demands SHM move strictly less than
	// an impossible fraction of PSSM's steady metadata, so the
	// metamorphic-metadata oracle fires on nearly any cell. Cell 0 is an
	// exception: its buffers are all read-only, so SHM moves almost no
	// steady metadata.
	c := CellCase(901, 1)
	bad := CheckOptions{IPCTolerance: 0.02, MetaTolerance: -2}
	vs, err := CheckCaseOpts(c, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOracle(vs, "metamorphic-metadata") {
		t.Fatalf("cell does not trip the strict tolerance: %v", vs)
	}
	pred := OracleFails(bad, "metamorphic-metadata")
	min1, _ := Shrink(c, pred, 40)
	min2, _ := Shrink(c, pred, 40)
	if !reflect.DeepEqual(min1, min2) {
		t.Fatalf("oracle-driven shrink not deterministic:\n%+v\n%+v", min1, min2)
	}
	if !pred(min1) {
		t.Fatal("shrunk case no longer trips the oracle")
	}
	if err := min1.Validate(); err != nil {
		t.Fatalf("shrunk case left the valid space: %v", err)
	}
	// The metamorphic oracle needs both PSSM and SHM, so the scheme list
	// cannot shrink below those two.
	names := min1.SchemeNames()
	if !slices.Contains(names, "PSSM") || !slices.Contains(names, "SHM") {
		t.Fatalf("shrunk scheme set %v lost a scheme the oracle needs", names)
	}
}

// TestReproCorpusGreen replays every committed shrunk repro under the
// current oracle battery. Each file in testdata/repros is a cell a past
// campaign flagged; the oracle calibration that resolved it (scheduling
// jitter under 1-deep queues for the IPC ordering, the reset-scan credit
// for the metadata ordering) must keep holding, or the file names exactly
// which regression came back.
func TestReproCorpusGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle battery in -short")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "repros", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("repro corpus is empty")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			c, err := LoadCase(path)
			if err != nil {
				t.Fatal(err)
			}
			vs, err := CheckCase(c)
			if err != nil {
				t.Fatalf("repro no longer valid: %v", err)
			}
			for _, v := range vs {
				t.Errorf("%s", v)
			}
		})
	}
}

func hasOracle(vs []Violation, oracle string) bool {
	for _, v := range vs {
		if v.Oracle == oracle {
			return true
		}
	}
	return false
}

// TestCampaignClean: a tiny bounded campaign must complete, count its
// cells, and write a clean manifest.
func TestCampaignClean(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short")
	}
	dir := t.TempDir()
	var log bytes.Buffer
	res, err := RunCampaign(CampaignOptions{
		Seed:      902,
		MaxCells:  3,
		CorpusDir: dir,
		Log:       &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 3 {
		t.Fatalf("campaign ran %d cells, want 3", res.Cells)
	}
	if !res.Clean() {
		t.Fatalf("campaign not clean: %+v\nlog:\n%s", res, log.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Seed         int64 `json:"seed"`
		Cells        int   `json:"cells"`
		FindingCount int   `json:"finding_count"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Seed != 902 || m.Cells != 3 || m.FindingCount != 0 {
		t.Fatalf("manifest = %+v", m)
	}
}

// TestCampaignNeedsBound: an unbounded campaign must be rejected, not run
// forever.
func TestCampaignNeedsBound(t *testing.T) {
	if _, err := RunCampaign(CampaignOptions{Seed: 1}); err == nil {
		t.Fatal("campaign with no bound must error")
	}
}

// TestViolationString covers both rendering branches.
func TestViolationString(t *testing.T) {
	v := Violation{Oracle: "determinism", Detail: "diverged"}
	if got := v.String(); !strings.Contains(got, "determinism") {
		t.Fatalf("String() = %q", got)
	}
	v.Scheme = "SHM"
	if got := v.String(); !strings.Contains(got, "SHM") {
		t.Fatalf("String() = %q", got)
	}
}

// FuzzWorkloadGen is the native fuzz wrapper over the generator oracle:
// for any seed, generation must be deterministic and emit a valid,
// buildable cell that round-trips through its JSON form.
func FuzzWorkloadGen(f *testing.F) {
	for _, s := range []int64{0, 1, 42, 1 << 20, -7} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		a := Generate(rand.New(rand.NewSource(seed)))
		b := Generate(rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: invalid case: %v", seed, err)
		}
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var back Case
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("seed %d: JSON round trip changed the case", seed)
		}
	})
}

// FuzzDifferentialCell is the native fuzz wrapper over the differential
// oracle battery: any (campaign seed, index) cell must pass every oracle.
func FuzzDifferentialCell(f *testing.F) {
	f.Add(int64(900), 0)
	f.Add(int64(900), 1)
	f.Add(int64(902), 2)
	f.Fuzz(func(t *testing.T, seed int64, index int) {
		if index < 0 {
			index = -index
		}
		c := CellCase(seed, index%1024)
		vs, err := CheckCase(c)
		if err != nil {
			t.Fatalf("generated cell invalid: %v", err)
		}
		for _, v := range vs {
			t.Errorf("%s", v)
		}
	})
}
