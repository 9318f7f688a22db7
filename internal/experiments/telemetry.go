package experiments

import (
	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// TelemetrySummary converts a simulation result into the neutral RunSummary
// the telemetry exporters consume. The telemetry package cannot import gpu
// (the probe-bearing packages import telemetry), so the conversion lives
// here, above both.
func TelemetrySummary(res gpu.Result) telemetry.RunSummary {
	return telemetry.RunSummary{
		Workload:       res.Workload,
		Scheme:         res.Scheme,
		Cycles:         res.Cycles,
		Instructions:   res.Instructions,
		IPC:            res.IPC(),
		Completed:      res.Completed,
		BusUtilization: res.BusUtilization,
		Traffic:        res.Traffic,
		Caches: []telemetry.NamedCache{
			{Name: "l1", Stats: res.L1},
			{Name: "l2", Stats: res.L2},
			{Name: "ctr_mdc", Stats: res.Ctr},
			{Name: "mac_mdc", Stats: res.MAC},
			{Name: "bmt_mdc", Stats: res.BMT},
		},
		RO:       res.ROAccuracy,
		Stream:   res.StreamAccuracy,
		Counters: res.Reg.Snapshot(),
	}
}

// RunInstrumented simulates one workload under one scheme with a telemetry
// collector attached, returning both the result and the filled collector.
// Instrumented runs are never cached: the collector belongs to exactly one
// run.
func RunInstrumented(cfg gpu.Config, wl string, sch scheme.Scheme, tcfg telemetry.Config) (gpu.Result, *telemetry.Collector, error) {
	return RunInstrumentedSeeded(cfg, wl, 0, sch, tcfg)
}

// RunInstrumentedSeeded is RunInstrumented with an explicit workload seed
// (0 keeps the benchmark's built-in seed).
func RunInstrumentedSeeded(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, tcfg telemetry.Config) (gpu.Result, *telemetry.Collector, error) {
	return RunObservedSeeded(cfg, wl, seed, sch, tcfg, nil)
}

// RunObservedSeeded is RunInstrumentedSeeded with a live-observability run
// handle attached (nil = no live plane): the simulator feeds the run's
// heartbeat and phase spans and honours its cancel flag. The observation
// path is passive, so results are byte-identical with orun nil or not.
func RunObservedSeeded(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, tcfg telemetry.Config, orun *obs.Run) (gpu.Result, *telemetry.Collector, error) {
	bench, err := workload.ByNameSeeded(wl, seed)
	if err != nil {
		return gpu.Result{}, nil, err
	}
	if err := cfg.Validate(); err != nil {
		return gpu.Result{}, nil, err
	}
	col := telemetry.New(tcfg)
	sys := gpu.NewSystem(cfg, sch.Options)
	sys.AttachTelemetry(col)
	if orun != nil {
		sys.SetObserver(orun, 0)
		sys.SetCancel(orun.CancelFlag())
	}
	res := sys.Run(bench)
	res.Scheme = sch.Name
	if orun != nil {
		orun.Done(res.Cycles, res.Completed)
	}
	return res, col, nil
}
