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

// ablate sweeps one MEE value: set writes a point into a copy of the
// runner's tuning. Each row is the SHM design's average normalized IPC at
// one point over the runner's workloads. A point's cells are labelled
// SHM@<field>=<point>; they and the baselines run on the worker pool
// before the table is built.
func ablate[T int | uint64](r *Runner, title, col, field string, points []T, set func(*secmem.Tuning, T)) *report.Table {
	cell := func(wl string, p T) RunSpec {
		spec := r.spec(wl, scheme.SHM)
		set(&spec.Config.MEE, p)
		spec.Scheme.Name = fmt.Sprintf("SHM@%s=%d", field, p)
		return spec
	}
	var specs []RunSpec
	for _, wl := range r.workloads {
		specs = append(specs, r.spec(wl, scheme.Baseline))
	}
	for _, p := range points {
		for _, wl := range r.workloads {
			specs = append(specs, cell(wl, p))
		}
	}
	r.prefetch(specs)

	t := report.NewTable(title, col, "avg normalized IPC")
	for _, p := range points {
		var sum float64
		for _, wl := range r.workloads {
			if base := r.Run(wl, scheme.Baseline); base.IPC() > 0 {
				sum += r.runOn(-1, cell(wl, p)).IPC() / base.IPC()
			}
		}
		t.AddRow(fmt.Sprintf("%d", p), sum/float64(len(r.workloads)))
	}
	return t
}

// AblationTrackers sweeps the per-partition memory-access-tracker count
// (paper default: 8).
func (r *Runner) AblationTrackers() *report.Table {
	return ablate(r, "Ablation: memory access trackers per partition", "trackers", "Trackers",
		[]int{2, 4, 8, 16}, func(m *secmem.Tuning, n int) { m.Trackers = n })
}

// AblationMonitorLead sweeps the monitor-ahead distance of the streaming
// detector (default: 4 chunks).
func (r *Runner) AblationMonitorLead() *report.Table {
	return ablate(r, "Ablation: streaming-detector monitor lead", "lead (chunks)", "MonitorLead",
		[]uint64{1, 2, 4, 8}, func(m *secmem.Tuning, lead uint64) { m.MonitorLead = lead })
}

// AblationTimeout sweeps the monitoring-phase idle timeout (paper: 6000).
func (r *Runner) AblationTimeout() *report.Table {
	return ablate(r, "Ablation: monitoring-phase timeout", "timeout (cycles)", "TimeoutCycles",
		[]uint64{1500, 3000, 6000, 12000}, func(m *secmem.Tuning, to uint64) { m.TimeoutCycles = to })
}

// AblationMDCSize sweeps the per-partition metadata-cache capacity
// (paper: 2 KB each for counter, MAC, and BMT caches).
func (r *Runner) AblationMDCSize() *report.Table {
	return ablate(r, "Ablation: metadata cache size (each of ctr/MAC/BMT)", "size (bytes)", "CacheBytes",
		[]int{1024, 2048, 4096, 8192}, func(m *secmem.Tuning, size int) { m.CacheBytes = size })
}
