package shmgpu_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shmgpu"
)

var updateCounters = flag.Bool("update", false, "rewrite testdata/counters from the current tree")

// counterCell is one quick cell whose registry snapshot is pinned, with
// the counter families (name prefixes) the snapshot must contain: a cell
// that stops exporting a family fails here even if its golden is rewritten.
type counterCell struct {
	name, workload, scheme string
	tune                   func(*shmgpu.Config)
	families               []string
}

var counterCells = []counterCell{
	{name: "atax_SHM_upper_bound", workload: "atax", scheme: "SHM_upper_bound",
		families: []string{"access_total", "access_streaming", "access_readonly"}},
	{name: "atax_SHM", workload: "atax", scheme: "SHM",
		families: []string{"det_stream", "det_random", "det_empty", "det_timeout_accesses", "det_timeout_bucket_", "mdc_blocked", "mp_"}},
	{name: "histo_SHM_vL2", workload: "histo", scheme: "SHM_vL2",
		families: []string{"victim_hit", "ro_transition"}},
	{name: "fdtd2d_SHM", workload: "fdtd2d", scheme: "SHM",
		families: []string{"input_readonly_reset"}},
	{name: "lbm_SHM", workload: "lbm", scheme: "SHM",
		families: []string{"ro_transition_host"}},
	{name: "bfs_SHM_oversub_stream", workload: "bfs", scheme: "SHM",
		tune: func(c *shmgpu.Config) {
			c.HostTier, c.OversubRatio, c.UVMPrefetch = true, 0.5, "stream"
		},
		families: []string{"uvm_faults", "uvm_prefetches", "uvm_ro_transitions"}},
	{name: "atax_Baseline", workload: "atax", scheme: "Baseline",
		families: []string{"mat_monitored", "mat_skipped"}},
}

// TestCounterSnapshotsPinned runs each counterCell and compares its
// registry snapshot, key set and values, against testdata/counters. Keys
// added with value 0 (Baseline's mat_*) are part of the key set.
func TestCounterSnapshotsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	for _, c := range counterCells {
		t.Run(c.name, func(t *testing.T) {
			cfg := shmgpu.QuickConfig()
			if c.tune != nil {
				c.tune(&cfg)
			}
			res := result(t, cfg, c.workload, c.scheme, 0)
			var b strings.Builder
			for _, cv := range res.Reg.Snapshot() {
				fmt.Fprintf(&b, "%s %d\n", cv.Name, cv.Value)
			}
			got := b.String()
			for _, f := range c.families {
				if !strings.Contains("\n"+got, "\n"+f) {
					t.Errorf("snapshot has no %s* counter:\n%s", f, got)
				}
			}
			path := filepath.Join("testdata", "counters", c.name+".txt")
			if *updateCounters {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("counter snapshot changed:\ngot:\n%swant:\n%s", got, want)
			}
		})
	}
}
