package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// RunSpec describes one simulation: one workload under one design on one
// GPU configuration. Execute is the only way to run it, so every caller —
// the Runner, the CLIs, the fuzz battery, the equivalence corpora — shares
// one validation and one system build.
type RunSpec struct {
	Config gpu.Config

	// Workload names a built-in benchmark (workload.Names). Seed 0 keeps
	// its built-in seed; any other value rebases the warp programs'
	// random streams.
	Workload string
	Seed     int64
	// Generated, when non-nil, replaces Workload and Seed with a
	// generated benchmark (the fuzz battery's cells, custom examples).
	Generated *workload.Spec

	// Scheme is the secure-memory design. Its Name labels the Result and
	// its Options configure the MEEs, so a variant of a preset can run
	// under the preset's label.
	Scheme scheme.Scheme

	// Telemetry, when non-nil, attaches a fresh collector with this
	// configuration; it is returned in RunOutput.Collector.
	Telemetry *telemetry.Config
	// Observe, when non-nil, receives the run's heartbeats and phase
	// spans, and its cancel flag is honoured. Observation is passive. The
	// caller owns the run handle and closes it with Done.
	Observe *obs.Run
}

// RunOutput is what Execute produced.
type RunOutput struct {
	// Result is the finished run.
	Result gpu.Result
	// Collector is the filled collector, nil unless RunSpec.Telemetry
	// was set.
	Collector *telemetry.Collector
}

// Execute validates spec, builds a fresh workload and GPU system, and
// runs it to completion. Running the same spec twice is byte-identical:
// nothing is shared between calls.
func Execute(spec RunSpec) (RunOutput, error) {
	if spec.Scheme.Name == "" {
		return RunOutput{}, fmt.Errorf("experiments: RunSpec has no scheme")
	}
	bench, err := spec.bench()
	if err != nil {
		return RunOutput{}, err
	}
	if err := spec.Config.Validate(); err != nil {
		return RunOutput{}, err
	}
	sys := gpu.NewSystem(spec.Config, spec.Scheme.Options)
	var out RunOutput
	if spec.Telemetry != nil {
		out.Collector = telemetry.New(*spec.Telemetry)
		sys.AttachTelemetry(out.Collector)
	}
	if spec.Observe != nil {
		sys.SetObserver(spec.Observe, 0)
		sys.SetCancel(spec.Observe.CancelFlag())
	}
	out.Result = sys.Run(bench)
	out.Result.Scheme = spec.Scheme.Name
	return out, nil
}

func (spec RunSpec) bench() (*workload.Bench, error) {
	if spec.Generated != nil {
		return workload.New(*spec.Generated)
	}
	return workload.ByNameSeeded(spec.Workload, spec.Seed)
}

// seed is the seed argument the spec names its workload with.
func (spec RunSpec) seed() int64 {
	if spec.Generated != nil {
		return spec.Generated.Seed
	}
	return spec.Seed
}

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

// Artifacts is everything observable about one finished run, in directly
// byte-comparable form. Two runs are "byte-identical" in the repo's sense
// exactly when DiffArtifacts finds nothing between them.
type Artifacts struct {
	// Result renders every Result field but the registry, which
	// Counters holds.
	Result string
	// Counters is the stats-registry snapshot as JSON.
	Counters []byte
	// JSONL is the full telemetry JSONL export.
	JSONL []byte
}

// Render renders a finished run of spec into its Artifacts. The spec must
// have had Telemetry set. tool stamps the JSONL manifest, whose other
// fields are fixed by the spec (no wall-clock values), so streams stay
// comparable across runs.
func Render(tool string, spec RunSpec, out RunOutput) (Artifacts, error) {
	if out.Collector == nil {
		return Artifacts{}, fmt.Errorf("experiments: rendering needs a run with telemetry attached")
	}
	res := out.Result
	counters, err := json.Marshal(res.Reg.Snapshot())
	if err != nil {
		return Artifacts{}, err
	}
	m := telemetry.Manifest{
		Tool:          tool,
		SchemaVersion: telemetry.SchemaVersion,
		Workload:      res.Workload,
		Scheme:        res.Scheme,
		SMs:           spec.Config.SMs,
		Partitions:    spec.Config.Partitions,
		Seed:          spec.seed(),
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, out.Collector, TelemetrySummary(res), m); err != nil {
		return Artifacts{}, err
	}
	line := fmt.Sprintf(
		"cycles=%d insts=%d traffic=%+v l1=%+v l2=%+v ctr=%+v mac=%+v bmt=%+v ro=%+v stream=%+v bus=%.9f victim_pushes=%d completed=%v",
		res.Cycles, res.Instructions, res.Traffic, res.L1, res.L2,
		res.Ctr, res.MAC, res.BMT, res.ROAccuracy, res.StreamAccuracy,
		res.BusUtilization, res.VictimPushes, res.Completed)
	return Artifacts{Result: line, Counters: counters, JSONL: buf.Bytes()}, nil
}

// DiffArtifacts byte-compares two runs that must be indistinguishable and
// returns one divergence per diverging part, under oracle's name (nil when
// they match). aName and bName label the sides ("fast-forward" vs
// "every-cycle", ...).
func DiffArtifacts(oracle, aName string, a Artifacts, bName string, b Artifacts) []Divergence {
	var ds []Divergence
	if a.Result != b.Result {
		ds = append(ds, Divergence{oracle, fmt.Sprintf("Result diverges:\n%s: %s\n%s: %s",
			aName, truncate(a.Result), bName, truncate(b.Result))})
	}
	if !bytes.Equal(a.Counters, b.Counters) {
		ds = append(ds, Divergence{oracle, fmt.Sprintf("stats snapshots diverge:\n%s: %s\n%s: %s",
			aName, truncate(string(a.Counters)), bName, truncate(string(b.Counters)))})
	}
	if !bytes.Equal(a.JSONL, b.JSONL) {
		ds = append(ds, Divergence{oracle, fmt.Sprintf("telemetry JSONL diverges (%s: %d bytes, %s: %d bytes)",
			aName, len(a.JSONL), bName, len(b.JSONL))})
	}
	return ds
}

func truncate(s string) string {
	const n = 400
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
