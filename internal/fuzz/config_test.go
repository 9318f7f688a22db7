package fuzz

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shmgpu/internal/experiments"
	"shmgpu/internal/gpu"
	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
	"shmgpu/internal/workload"
)

// deltaOf builds a Delta from path, value pairs.
func deltaOf(kv ...any) Delta {
	var d Delta
	for i := 0; i < len(kv); i += 2 {
		d.set(kv[i].(string), kv[i+1])
	}
	return d
}

// leafPaths returns the dotted path of every leaf field of v, a struct, in
// declaration order.
func leafPaths(v reflect.Value, prefix string) []string {
	var paths []string
	for i := 0; i < v.NumField(); i++ {
		path := prefix + v.Type().Field(i).Name
		if f := v.Field(i); f.Kind() == reflect.Struct {
			paths = append(paths, leafPaths(f, path+".")...)
		} else {
			paths = append(paths, path)
		}
	}
	return paths
}

// TestLoadCaseRejectsBadDelta: a case file whose config names no field,
// or gives a field a value it cannot hold, must fail to load rather than
// replay the tiny base; so must a workload key that names no field (an
// old-format "kb" would otherwise load as the 16 KB default) or a value
// its field cannot hold. So must a case naming a config key the host tier
// no longer has (testdata/retired-key-case.json sets its large-page knob).
func TestLoadCaseRejectsBadDelta(t *testing.T) {
	const buffers = `{"buffers": [{"bytes": 16384}], "seed": 1}`
	retired, err := os.ReadFile(filepath.Join("testdata", "retired-key-case.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"retired UVM key":   string(retired),
		"old-format key":    `{"config": {"mdc_bytes": 512}, "workload": ` + buffers + `}`,
		"misspelled path":   `{"config": {"MEE.Trackerz": 1}, "workload": ` + buffers + `}`,
		"non-leaf path":     `{"config": {"DRAM": {"Banks": 2}}, "workload": ` + buffers + `}`,
		"undecodable value": `{"config": {"SMs": "two"}, "workload": ` + buffers + `}`,
		"old-format kb":     `{"workload": {"buffers": [{"kb": 64}], "seed": 1}}`,
		"misspelled pattrn": `{"workload": {"buffers": [{"pattrn": "random"}], "seed": 1}}`,
		"old-format seed":   `{"seed": 1, "workload": ` + buffers + `}`,
		"unknown pattern":   `{"workload": {"buffers": [{"pattern": "zigzag"}], "seed": 1}}`,
		"unknown space":     `{"workload": {"buffers": [{"space": "heap"}], "seed": 1}}`,
		"numeric pattern":   `{"workload": {"buffers": [{"pattern": 1}], "seed": 1}}`,
	} {
		path := filepath.Join(t.TempDir(), "case.json")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if c, err := LoadCase(path); err == nil {
			t.Errorf("%s: LoadCase accepted %s as %+v", name, data, c)
		}
	}
}

// TestConfigFieldSweep sets each leaf of the tiny base, one at a time, to
// out-of-range values, with the host tier off and on. Each config must
// fail Validate or run to completion under SHM: no constructor panic
// behind a config Validate accepted. An int or uint64 leaf set to the
// huge value must fail Validate and is never run, so a size or latency
// without an upper bound fails the test instead of allocating it or
// running for hours. Only the UVM knobs, inert with the host tier off, and
// the leaves in hugeOK may accept it.
func TestConfigFieldSweep(t *testing.T) {
	wspec := baseWorkload(workload.Spec{Seed: 1, Buffers: []workload.Buffer{
		{Bytes: 32 << 10, Pattern: workload.Random, WriteFrac: 0.3}}})
	const huge = 1 << 40
	bad := map[reflect.Kind][]any{
		reflect.Int: {0, -1, huge}, reflect.Uint64: {uint64(0), uint64(huge)}, reflect.Float64: {-1.0, math.NaN()},
		reflect.String: {"bogus"}, reflect.Bool: {true},
	}
	// The leaves that may take the huge value, which the sweep then runs.
	hugeOK := map[string]string{
		"MaxCycles": "a cap on the run, not a size: a huge one is no cap",
		"DeviceMemoryBytes": "sizes only the metadata layout's arithmetic, " +
			"allocating nothing per byte: a 12 TiB device runs a capped cell in 0.25 s",
	}
	tiered := baseConfig()
	tiered.HostTier, tiered.OversubRatio, tiered.UVMPageBytes = true, 0.5, 4<<10
	for _, base := range []gpu.Config{baseConfig(), tiered} {
		for _, path := range leafPaths(reflect.ValueOf(base), "") {
			f, _ := field(&base, path)
			vals, ok := bad[f.Kind()]
			if !ok {
				t.Fatalf("%s: no out-of-range values for kind %s", path, f.Kind())
			}
			for _, v := range vals {
				cfg := base
				f, _ := field(&cfg, path)
				f.Set(reflect.ValueOf(v))
				if cfg.Validate() != nil {
					continue
				}
				name := fmt.Sprintf("HostTier=%v %s=%v", base.HostTier, path, v)
				if (v == huge || v == uint64(huge)) && hugeOK[path] == "" {
					if base.HostTier || !strings.HasPrefix(path, "UVM") {
						t.Errorf("%s: Validate accepted a value with no upper bound", name)
					}
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: Validate accepted the config, then Execute panicked: %v", name, r)
						}
					}()
					out, err := experiments.Execute(experiments.RunSpec{Config: cfg, Generated: &wspec, Scheme: scheme.SHM})
					if err != nil || out.Result.Cycles == 0 {
						t.Errorf("%s: Validate accepted the config, then Execute ran %d cycles, err %v", name, out.Result.Cycles, err)
					}
				}()
			}
		}
	}
}

// TestCellConfigsPinned pins the configs the first 1000 cells of campaign
// seed 20260805 materialize: every leaf outside MEE, and every
// partition's MEE config under both metadata addressing modes. The
// campaign record testdata/campaign-20260805.json describes those cells,
// so a change to the generator or to how a delta decodes moves this hash
// only on purpose.
func TestCellConfigsPinned(t *testing.T) {
	const want = "205dd71e3d842434af3e3a76e9dccfc565eb1fa1069a3d50b31efa3d721f0574"
	h := sha256.New()
	for i := 0; i < 1000; i++ {
		cfg, err := CellCase(20260805, i).GPUConfig()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		for _, path := range leafPaths(reflect.ValueOf(cfg), "") {
			if !strings.HasPrefix(path, "MEE.") {
				f, _ := field(&cfg, path)
				fmt.Fprintf(h, "%s=%v\n", path, f.Interface())
			}
		}
		for _, local := range []bool{false, true} {
			for p := 0; p < cfg.Partitions; p++ {
				fmt.Fprintf(h, "%+v\n", cfg.MEEOptionsToConfig(secmem.Options{Enabled: true, LocalMetadata: local}, p))
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("cell configs hash to %s, want %s", got, want)
	}
}

// TestCellWorkloadsPinned pins the workload specs the first 1000 cells of
// campaign seed 20260805 materialize, tiny-base defaults applied, as
// TestCellConfigsPinned pins their configs.
func TestCellWorkloadsPinned(t *testing.T) {
	const want = "1bd7eda6c77890ddce986142b641b9d71e6c76193908baa9314063acdfb9cd1a"
	h := sha256.New()
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(h, "%+v\n", baseWorkload(CellCase(20260805, i).Workload))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("cell workloads hash to %s, want %s", got, want)
	}
}
