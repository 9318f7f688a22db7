package shmgpu

import (
	"strings"
	"testing"
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
	if _, err := Run(QuickConfig(), "nope", "SHM"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(QuickConfig(), "atax", "nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestRunRejectsBadConfig drives configurations the simulator cannot run
// through both facade entry points: each must come back as an error, not
// a panic in a component constructor or a run that never ends. Every case
// leaves MaxCycles at 0, so a config that slipped through and stalled
// would hang until the test timeout.
func TestRunRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"MaxWarpInflightSectors=0", func(c *Config) { c.MaxWarpInflightSectors = 0 }},
		{"MaxWarpInflightSectors<0", func(c *Config) { c.MaxWarpInflightSectors = -4 }},
		{"L1Bytes=0", func(c *Config) { c.L1Bytes = 0 }},
		{"L1Bytes<0", func(c *Config) { c.L1Bytes = -1 << 10 }},
		{"L1Ways=0", func(c *Config) { c.L1Ways = 0 }},
		{"L1Ways<0", func(c *Config) { c.L1Ways = -2 }},
		{"L1MSHRs=0", func(c *Config) { c.L1MSHRs = 0 }},
		{"L1MSHRs<0", func(c *Config) { c.L1MSHRs = -1 }},
		{"L2Ways=0", func(c *Config) { c.L2Ways = 0 }},
		{"L2BankBytes=0", func(c *Config) { c.L2BankBytes = 0 }},
		{"L2BankBytes=100", func(c *Config) { c.L2BankBytes = 100 }},
		{"DeviceMemoryBytes=0", func(c *Config) { c.DeviceMemoryBytes = 0 }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := QuickConfig()
			cfg.MaxCycles = 0
			c.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted the config")
			}
			if _, err := RunSeeded(cfg, "atax", "SHM", 1); err == nil {
				t.Error("RunSeeded accepted the config")
			}
			if _, _, err := RunWithTelemetrySeeded(cfg, "atax", "SHM", 1, TelemetryConfig{}); err == nil {
				t.Error("RunWithTelemetrySeeded accepted the config")
			}
		})
	}
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res, err := Run(QuickConfig(), "atax", "SHM")
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Scheme != "SHM" || res.Workload != "atax" {
		t.Fatalf("labels wrong: %q %q", res.Scheme, res.Workload)
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
