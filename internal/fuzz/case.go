// Package fuzz is the simulator's generative testing layer: a seeded
// random generator of valid GPU configurations and synthetic workloads, a
// differential-oracle runner that executes each generated cell under
// multiple cycle-skipping modes and secure-memory schemes and checks a
// battery of equivalence, metamorphic and conservation properties, and a
// deterministic shrinker that reduces failing cells to minimal replayable
// JSON repros.
//
// The package exists because the cycle core's correctness story rests on
// promises that hand-picked corpora cannot exhaust: event-horizon
// fast-forward must be byte-identical to every-cycle ticking, runs must be
// bit-reproducible under a seed, and the metadata-traffic accounting the
// paper's comparisons rest on must obey closed-form conservation laws for
// every configuration, not just the shipped benchmarks. cmd/shmfuzz drives
// timed campaigns over this package; the native go-fuzz targets in
// fuzz_test.go wrap the same oracles.
//
// A cell replays from its JSON Case alone, and has the parts of an
// experiments.RunSpec. Its config is a Delta: dotted gpu.Config field
// paths over a tiny base, so any field of the real config, MEE values
// included, can appear in a repro under its own name. Its workload is a
// workload.Spec, the declarative model the Table VII benchmarks use, whose
// zero fields take the tiny base's defaults. Decoding a case rejects a key
// that names no field, in the config and in the workload alike.
package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"

	"shmgpu/internal/dram"
	"shmgpu/internal/gpu"
	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
	"shmgpu/internal/workload"
)

// Case is one replayable fuzz cell, with the three parts of an
// experiments.RunSpec: a GPU configuration delta, a synthetic workload,
// and the scheme set to run it under. Every optional field left out takes
// the tiny base's value, so shrunk repros serialize to only the fields
// that matter.
type Case struct {
	// Config is the GPU configuration delta over the tiny base.
	Config Delta `json:"config,omitempty"`
	// Workload is the synthetic kernel model. Its name labels the cell in
	// findings and logs; its seed is threaded into every warp program.
	// Zero fields take the tiny base's defaults (baseWorkload).
	Workload workload.Spec `json:"workload"`
	// Schemes is the secure-memory designs to run (default: Baseline,
	// Naive, PSSM, SHM).
	Schemes []string `json:"schemes,omitempty"`
}

// UnmarshalJSON decodes a case and rejects a key that names no field, so
// a misspelled or old-format workload key fails to load instead of
// replaying the tiny base's default.
func (c *Case) UnmarshalJSON(data []byte) error {
	type plain Case
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode((*plain)(c))
}

// Delta is a flat set of gpu.Config values over the tiny base
// (baseConfig). Each key is the dotted path of a leaf field ("SMs",
// "DRAM.QueueDepth", "MEE.Trackers", "OversubRatio"), each value that
// field's JSON, so a shrunk repro reads
//
//	{
//	  "config": {
//	    "MEE.WindowAccesses": 33
//	  },
//	  "workload": {
//	    "buffers": [{"pattern": "random"}],
//	    "seed": 2
//	  },
//	  "schemes": ["SHM"]
//	}
//
// Decoding a Delta from JSON rejects a path that names no leaf field and
// a value its field cannot hold, so a misspelled key fails to load
// instead of replaying the base.
type Delta map[string]json.RawMessage

// set records v, a plain number, bool or string, as path's value.
func (d *Delta) set(path string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	if *d == nil {
		*d = make(Delta)
	}
	(*d)[path] = raw
}

// paths returns d's keys in order.
func (d Delta) paths() []string {
	paths := make([]string, 0, len(d))
	for p := range d {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	return paths
}

// apply decodes each of d's values onto the field of cfg its path names.
func (d Delta) apply(cfg *gpu.Config) error {
	for _, path := range d.paths() {
		f, ok := field(cfg, path)
		if !ok {
			return fmt.Errorf("fuzz: config key %q names no gpu.Config field", path)
		}
		if err := json.Unmarshal(d[path], f.Addr().Interface()); err != nil {
			return fmt.Errorf("fuzz: config key %q: %w", path, err)
		}
	}
	return nil
}

// field returns the leaf field of cfg that the dotted path names.
func field(cfg *gpu.Config, path string) (reflect.Value, bool) {
	f := reflect.ValueOf(cfg).Elem()
	for _, name := range strings.Split(path, ".") {
		if f.Kind() != reflect.Struct {
			return reflect.Value{}, false
		}
		sf, ok := f.Type().FieldByName(name)
		if !ok || !sf.IsExported() {
			return reflect.Value{}, false
		}
		f = f.FieldByIndex(sf.Index)
	}
	return f, f.Kind() != reflect.Struct
}

// UnmarshalJSON decodes a delta and checks it against the tiny base.
func (d *Delta) UnmarshalJSON(data []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	cfg := baseConfig()
	if err := Delta(m).apply(&cfg); err != nil {
		return err
	}
	*d = m
	return nil
}

// baseConfig is the tiny base every case's delta applies to. It is
// deliberately far smaller than QuickConfig: a fuzz campaign's value is
// cells per second, and every mechanism (sectoring, MSHRs, queue
// back-pressure, detector phases, metadata walks) is exercised at this
// scale too. The host-tier values are set with the tier off, where they
// are inert: a battery row that turns the tier on at fit then runs the
// cell's own page size, policies and prefetch knobs.
func baseConfig() gpu.Config {
	return gpu.Config{
		SMs:                     2,
		WarpsPerSM:              4,
		Partitions:              2,
		L2BanksPerPartition:     1,
		L2BankBytes:             16 << 10,
		L2Ways:                  4,
		L2MSHRs:                 16,
		L2Merges:                4,
		L1Bytes:                 4 << 10,
		L1Ways:                  2,
		L1MSHRs:                 8,
		L1Latency:               20,
		L2Latency:               30,
		XbarLatency:             20,
		XbarQueueDepth:          8,
		MaxWarpInflightSectors:  8,
		DeviceMemoryBytes:       4 << 20,
		MaxCycles:               60_000,
		VictimMissRateThreshold: 0.90,
		VictimSampleWindow:      1024,
		DRAM: dram.Config{
			Banks:           4,
			RowBytes:        512,
			CASCycles:       40,
			RowCycles:       80,
			BytesPerCycleFP: 4759,
			QueueDepth:      8,
		},
		MEE:          secmem.DefaultTuning(),
		UVMPageBytes: 16 << 10,
	}
}

// baseWorkload fills w's zero fields with the tiny base's defaults: the
// name "fuzzcell", one kernel and 16 memory instructions per warp, and
// per buffer the name "buf<i>", 16 KB and weight 1.
func baseWorkload(w workload.Spec) workload.Spec {
	if w.BenchName == "" {
		w.BenchName = "fuzzcell"
	}
	if w.KernelCount == 0 {
		w.KernelCount = 1
	}
	if w.MemInstsPerWarp == 0 {
		w.MemInstsPerWarp = 16
	}
	w.Buffers = slices.Clone(w.Buffers)
	for i := range w.Buffers {
		b := &w.Buffers[i]
		if b.Name == "" {
			b.Name = fmt.Sprintf("buf%d", i)
		}
		if b.Bytes == 0 {
			b.Bytes = 16 << 10
		}
		if b.Weight == 0 {
			b.Weight = 1
		}
	}
	return w
}

// DefaultSchemes is the scheme set a Case with no explicit Schemes runs:
// the insecure baseline, the CPU-style naive design, PSSM, and full SHM —
// the minimum set over which all cross-scheme metamorphic oracles apply.
var DefaultSchemes = []string{"Baseline", "Naive", "PSSM", "SHM"}

// SchemeNames returns the cell's scheme list with the default applied.
func (c Case) SchemeNames() []string {
	if len(c.Schemes) == 0 {
		return append([]string(nil), DefaultSchemes...)
	}
	return c.Schemes
}

// GPUConfig materializes the cell's gpu.Config: the tiny base with the
// delta decoded onto it.
func (c Case) GPUConfig() (gpu.Config, error) {
	cfg := baseConfig()
	err := c.Config.apply(&cfg)
	return cfg, err
}

// Validate checks the cell is runnable: the GPU config passes its own
// validation (which includes the metadata geometry), every scheme name
// resolves, the workload builds, and its buffers fit device memory.
func (c Case) Validate() error {
	_, _, err := c.build()
	return err
}

// build validates the cell and returns its config and the benchmark its
// workload lays out.
func (c Case) build() (gpu.Config, *workload.Bench, error) {
	cfg, err := c.GPUConfig()
	if err != nil {
		return cfg, nil, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, nil, err
	}
	for _, name := range c.SchemeNames() {
		if _, err := scheme.ByName(name); err != nil {
			return cfg, nil, err
		}
	}
	bench, err := workload.New(baseWorkload(c.Workload))
	if err != nil {
		return cfg, nil, err
	}
	if fp := bench.Footprint(); fp > cfg.DeviceMemoryBytes {
		return cfg, nil, fmt.Errorf("fuzz: footprint %d exceeds device memory %d", fp, cfg.DeviceMemoryBytes)
	}
	return cfg, bench, nil
}

// MarshalIndent renders the case as the canonical replayable JSON.
func (c Case) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// LoadCase reads a replayable case file written by a campaign or shrinker.
func LoadCase(path string) (Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Case{}, err
	}
	var c Case
	if err := json.Unmarshal(data, &c); err != nil {
		return Case{}, fmt.Errorf("fuzz: parsing %s: %w", path, err)
	}
	return c, nil
}
