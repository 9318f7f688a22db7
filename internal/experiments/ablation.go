package experiments

import (
	"fmt"

	"shmgpu/internal/report"
	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
)

// Ablation studies sweep the design parameters DESIGN.md calls out:
// the number of memory access trackers, the streaming-detector monitoring
// lead and timeout, and the metadata-cache capacity. Each study reports
// the SHM design's average normalized IPC over the configured workloads,
// isolating how sensitive the paper's results are to that choice.

// ablate runs SHM (and its baseline) under a tuned MEE configuration and
// returns the average normalized IPC over the runner's workloads.
func (r *Runner) ablate(tune func(*secmem.Config)) float64 {
	cfg := r.cfg
	cfg.MEETune = tune
	var sum float64
	for _, wl := range r.workloads {
		base := r.Run(wl, scheme.Baseline) // cached, shared across points
		out, err := Execute(RunSpec{Config: cfg, Workload: wl, Scheme: scheme.SHM})
		if err != nil {
			r.fail(fmt.Errorf("experiments: ablation %s: %w", wl, err))
			continue
		}
		if base.IPC() > 0 {
			sum += out.Result.IPC() / base.IPC()
		}
	}
	return sum / float64(len(r.workloads))
}

// AblationTrackers sweeps the per-partition memory-access-tracker count
// (paper default: 8).
func (r *Runner) AblationTrackers() *report.Table {
	t := report.NewTable("Ablation: memory access trackers per partition",
		"trackers", "avg normalized IPC")
	for _, n := range []int{2, 4, 8, 16} {
		n := n
		avg := r.ablate(func(c *secmem.Config) { c.Streaming.Trackers = n })
		t.AddRow(fmt.Sprintf("%d", n), avg)
	}
	return t
}

// AblationMonitorLead sweeps the monitor-ahead distance of the streaming
// detector (default: 4 chunks).
func (r *Runner) AblationMonitorLead() *report.Table {
	t := report.NewTable("Ablation: streaming-detector monitor lead",
		"lead (chunks)", "avg normalized IPC")
	for _, lead := range []uint64{1, 2, 4, 8} {
		lead := lead
		avg := r.ablate(func(c *secmem.Config) { c.Streaming.MonitorLead = lead })
		t.AddRow(fmt.Sprintf("%d", lead), avg)
	}
	return t
}

// AblationTimeout sweeps the monitoring-phase idle timeout (paper: 6000).
func (r *Runner) AblationTimeout() *report.Table {
	t := report.NewTable("Ablation: monitoring-phase timeout",
		"timeout (cycles)", "avg normalized IPC")
	for _, to := range []uint64{1500, 3000, 6000, 12000} {
		to := to
		avg := r.ablate(func(c *secmem.Config) { c.Streaming.TimeoutCycles = to })
		t.AddRow(fmt.Sprintf("%d", to), avg)
	}
	return t
}

// AblationMDCSize sweeps the per-partition metadata-cache capacity
// (paper: 2 KB each for counter, MAC, and BMT caches).
func (r *Runner) AblationMDCSize() *report.Table {
	t := report.NewTable("Ablation: metadata cache size (each of ctr/MAC/BMT)",
		"size (bytes)", "avg normalized IPC")
	for _, size := range []int{1024, 2048, 4096, 8192} {
		size := size
		avg := r.ablate(func(c *secmem.Config) {
			c.CtrCache.SizeBytes = size
			c.MACCache.SizeBytes = size
			c.BMTCache.SizeBytes = size
		})
		t.AddRow(fmt.Sprintf("%d", size), avg)
	}
	return t
}
