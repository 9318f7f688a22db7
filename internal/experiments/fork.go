package experiments

import (
	"fmt"

	"shmgpu/internal/gpu"
	"shmgpu/internal/scheme"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/telemetry"
	"shmgpu/internal/workload"
)

// Fork-based sweeps: warm one parent run to a cycle boundary, capture its
// complete state once, and fork one child per execution variant from the
// snapshot instead of re-simulating the warmup for every cell. Children
// may vary exactly the knob the equivalence corpora prove byte-neutral —
// event-horizon fast-forward — so every forked child is byte-identical to
// the same variant run from scratch (the fork-equivalence fuzz oracle and
// TestForkMatchesScratch pin this).

// ForkSpec selects one child's execution strategy.
type ForkSpec struct {
	// DisableFastForward forces the child to tick every cycle.
	DisableFastForward bool
}

func applyFork(cfg gpu.Config, spec ForkSpec) gpu.Config {
	cfg.DisableFastForward = spec.DisableFastForward
	return cfg
}

// RunForkedSeeded runs (workload, scheme) under every spec, amortizing the
// first warmCycle cycles across the specs through one warmed parent. Each
// child gets its own fresh collector (config tcfg), exactly as if the run
// had been instrumented from scratch. When the whole workload finishes
// before warmCycle there is nothing to fork; every spec falls back to an
// ordinary from-scratch run, which is byte-identical by definition.
func RunForkedSeeded(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, warmCycle uint64, tcfg telemetry.Config, specs []ForkSpec) ([]gpu.Result, []*telemetry.Collector, error) {
	results := make([]gpu.Result, len(specs))
	cols := make([]*telemetry.Collector, len(specs))
	if len(specs) == 0 {
		return results, cols, nil
	}
	blob, _, err := warmSnapshot(cfg, wl, seed, sch, warmCycle, tcfg)
	if err != nil {
		return nil, nil, err
	}
	if blob == nil {
		for i, spec := range specs {
			res, col, err := RunInstrumentedSeeded(applyFork(cfg, spec), wl, seed, sch, tcfg)
			if err != nil {
				return nil, nil, err
			}
			results[i], cols[i] = res, col
		}
		return results, cols, nil
	}
	for i, spec := range specs {
		res, col, err := resumeFromSnapshot(applyFork(cfg, spec), wl, seed, sch, tcfg, blob)
		if err != nil {
			return nil, nil, err
		}
		results[i], cols[i] = res, col
	}
	return results, cols, nil
}

// warmSnapshot runs the parent to warmCycle and serializes it. A nil blob
// with nil error means the workload completed before the boundary (res
// then holds the finished parent's result).
func warmSnapshot(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, warmCycle uint64, tcfg telemetry.Config) ([]byte, gpu.Result, error) {
	bench, err := workload.ByNameSeeded(wl, seed)
	if err != nil {
		return nil, gpu.Result{}, err
	}
	sys := gpu.NewSystem(cfg, sch.Options)
	col := telemetry.New(tcfg)
	sys.AttachTelemetry(col)
	res, done := sys.RunUntil(bench, warmCycle)
	if done {
		res.Scheme = sch.Name
		return nil, res, nil
	}
	enc := snapshot.NewEncoder()
	if err := sys.SaveState(enc, bench); err != nil {
		return nil, gpu.Result{}, err
	}
	return enc.Data(), gpu.Result{}, nil
}

// resumeFromSnapshot restores blob into a fresh system under cfg and runs
// it to completion.
func resumeFromSnapshot(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, tcfg telemetry.Config, blob []byte) (gpu.Result, *telemetry.Collector, error) {
	bench, err := workload.ByNameSeeded(wl, seed)
	if err != nil {
		return gpu.Result{}, nil, err
	}
	sys := gpu.NewSystem(cfg, sch.Options)
	col := telemetry.New(tcfg)
	sys.AttachTelemetry(col)
	if err := sys.LoadState(snapshot.NewDecoder(blob), bench); err != nil {
		return gpu.Result{}, nil, err
	}
	res := sys.Resume(bench)
	res.Scheme = sch.Name
	return res, col, nil
}

// RunForkedFamily is the Runner-level fork sweep: cells sharing a warmup
// prefix — same (workload, scheme), differing only in the fast-forward
// mode — are produced from one warmed parent instead of one full run
// each. Every result is byte-identical to a from-scratch run, so the
// sequential fast-forward variant (the zero ForkSpec) also primes the
// runner's figure cache for that cell.
func (r *Runner) RunForkedFamily(wl string, sch scheme.Scheme, warmCycle uint64, specs []ForkSpec) ([]gpu.Result, error) {
	results, _, err := RunForkedSeeded(r.cfg, wl, 0, sch, warmCycle, r.tcfg, specs)
	if err != nil {
		return nil, err
	}
	for i, spec := range specs {
		if spec != (ForkSpec{}) {
			continue
		}
		k := key(wl, sch, false)
		r.mu.Lock()
		if _, ok := r.cache[k]; !ok {
			r.cache[k] = results[i]
		}
		r.mu.Unlock()
	}
	return results, nil
}

// WriteSnapshotSeeded warms (workload, scheme) to warmCycle and writes the
// captured state to path (checksummed, version-stamped, atomically
// renamed into place — a killed writer never leaves a loadable file). It
// reports whether a snapshot was written: a workload that completes
// before warmCycle leaves nothing to capture, and a run cancelled by a
// watchdog refuses to snapshot.
func WriteSnapshotSeeded(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, warmCycle uint64, tcfg telemetry.Config, path string) (bool, error) {
	if warmCycle == 0 {
		return false, fmt.Errorf("experiments: snapshot cycle must be positive")
	}
	blob, _, err := warmSnapshot(cfg, wl, seed, sch, warmCycle, tcfg)
	if err != nil || blob == nil {
		return false, err
	}
	if err := snapshot.WriteFile(path, blob); err != nil {
		return false, err
	}
	return true, nil
}

// RestoreRunSeeded loads a snapshot written by WriteSnapshotSeeded and
// resumes it to completion under cfg. The workload, scheme, seed, and
// collector configuration must match the capturing run (the snapshot's
// fingerprint and the collector's own config check reject mismatches);
// cfg may vary only the execution-strategy knob (fast-forward).
func RestoreRunSeeded(cfg gpu.Config, wl string, seed int64, sch scheme.Scheme, tcfg telemetry.Config, path string) (gpu.Result, *telemetry.Collector, error) {
	blob, err := snapshot.ReadFile(path)
	if err != nil {
		return gpu.Result{}, nil, err
	}
	return resumeFromSnapshot(cfg, wl, seed, sch, tcfg, blob)
}
