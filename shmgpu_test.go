package shmgpu

import (
	"strings"
	"testing"

	"shmgpu/internal/scheme"
)

func TestWorkloadAndSchemeListings(t *testing.T) {
	if len(Workloads()) != 16 {
		t.Fatalf("workloads = %d, want 16", len(Workloads()))
	}
	if len(MemoryIntensiveWorkloads()) != 15 {
		t.Fatalf("memory-intensive = %d, want 15", len(MemoryIntensiveWorkloads()))
	}
	schemes := Schemes()
	if len(schemes) != 10 {
		t.Fatalf("schemes = %d, want 10", len(schemes))
	}
	if schemes[0] != "Baseline" {
		t.Fatalf("first scheme = %q, want Baseline", schemes[0])
	}
}

func TestSchemeDescription(t *testing.T) {
	desc, err := SchemeDescription("SHM")
	if err != nil || !strings.Contains(desc, "dual-granularity") {
		t.Fatalf("desc = %q, err = %v", desc, err)
	}
	if _, err := SchemeDescription("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRunErrors(t *testing.T) {
	shm, err := SchemeByName("SHM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SchemeByName("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Execute(RunSpec{Config: QuickConfig(), Workload: "nope", Scheme: shm}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Execute(RunSpec{Config: QuickConfig(), Workload: "atax"}); err == nil {
		t.Fatal("spec without a scheme accepted")
	}
}

// TestRunRejectsBadConfig drives configurations the simulator cannot run
// through every way of running a spec — plain and instrumented — and
// through a Runner: each must come
// back as an error (or, for the Runner, a refused run reported by Err),
// not a panic in a component constructor or a run that never ends. Every
// case leaves MaxCycles at 0, so a config that slipped through and
// stalled would hang until the test timeout.
func TestRunRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"SMs=100000", func(c *Config) { c.SMs = 100000 }},
		{"L2BanksPerPartition=1<<20", func(c *Config) { c.L2BanksPerPartition = 1 << 20 }},
		{"MaxWarpInflightSectors=0", func(c *Config) { c.MaxWarpInflightSectors = 0 }},
		{"MaxWarpInflightSectors<0", func(c *Config) { c.MaxWarpInflightSectors = -4 }},
		{"L1Bytes=0", func(c *Config) { c.L1Bytes = 0 }},
		{"L1Bytes<0", func(c *Config) { c.L1Bytes = -1 << 10 }},
		{"L1Ways=0", func(c *Config) { c.L1Ways = 0 }},
		{"L1Ways<0", func(c *Config) { c.L1Ways = -2 }},
		{"L1MSHRs=0", func(c *Config) { c.L1MSHRs = 0 }},
		{"L1MSHRs<0", func(c *Config) { c.L1MSHRs = -1 }},
		{"L2Ways=0", func(c *Config) { c.L2Ways = 0 }},
		{"L2Merges=256", func(c *Config) { c.L2Merges = 256 }},
		{"L2BankBytes=0", func(c *Config) { c.L2BankBytes = 0 }},
		{"L2BankBytes=100", func(c *Config) { c.L2BankBytes = 100 }},
		{"DeviceMemoryBytes=0", func(c *Config) { c.DeviceMemoryBytes = 0 }},
		{"DeviceMemoryBytes=12", func(c *Config) { c.DeviceMemoryBytes = 12 }},
		{"DeviceMemoryBytes=12*4096", func(c *Config) { c.DeviceMemoryBytes = 12 * 4096 }},
		{"MEE IssuePerCycle=0", func(c *Config) { c.MEE.IssuePerCycle = 0 }},
		{"MEE InputQueue=0", func(c *Config) { c.MEE.InputQueue = 0 }},
		{"MEE CacheBytes=0", func(c *Config) { c.MEE.CacheBytes = 0 }},
		{"MEE CacheBytes=100", func(c *Config) { c.MEE.CacheBytes = 100 }},
		{"MEE CacheBytes=384", func(c *Config) { c.MEE.CacheBytes = 384 }},
		{"MEE Trackers=0", func(c *Config) { c.MEE.Trackers = 0 }},
		{"MEE WindowAccesses=65", func(c *Config) { c.MEE.WindowAccesses = 65 }},
	}
	tcfg := TelemetryConfig{}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := QuickConfig()
			cfg.MaxCycles = 0
			c.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted the config")
			}
			plain := RunSpec{Config: cfg, Workload: "atax", Seed: 1, Scheme: scheme.SHM}
			instrumented := plain
			instrumented.Telemetry = &tcfg
			for _, s := range []struct {
				name string
				spec RunSpec
			}{{"plain", plain}, {"instrumented", instrumented}} {
				if _, err := Execute(s.spec); err == nil {
					t.Errorf("Execute accepted the config as a %s spec", s.name)
				}
			}
			r := NewRunner(cfg, []string{"atax"})
			if res := r.Run("atax", scheme.SHM); res.Cycles != 0 || r.Err() == nil {
				t.Errorf("Runner ran the config (%d cycles, Err %v); want a refused run", res.Cycles, r.Err())
			}
		})
	}
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	out, err := Execute(RunSpec{Config: QuickConfig(), Workload: "atax", Scheme: scheme.SHM})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Scheme != "SHM" || res.Workload != "atax" {
		t.Fatalf("labels wrong: %q %q", res.Scheme, res.Workload)
	}
	if out.Collector != nil {
		t.Fatal("plain run returned a collector")
	}
}

func TestFigureDispatch(t *testing.T) {
	r := NewRunner(QuickConfig(), []string{"atax"})
	if _, err := Figure(r, "ix"); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure(r, "99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFigureGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := NewRunner(QuickConfig(), []string{"atax"})
	for _, id := range []string{"12", "14", "oversub"} {
		tb, err := Figure(r, id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if !strings.Contains(tb.String(), "atax") {
			t.Fatalf("figure %s missing workload:\n%s", id, tb.String())
		}
	}
}
