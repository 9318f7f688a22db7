package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/telemetry"
)

// The experiment tests run a trimmed configuration: two contrasting
// workloads (a streaming read-only one and a random write-heavy one) on
// the quick GPU config. Full-scale sweeps live in the benchmark harness.
func quickRunner() *Runner {
	return NewRunner(QuickConfig(), []string{"fdtd2d", "bfs"})
}

func TestFig12ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := quickRunner()
	table := r.Fig12()
	s := table.String()
	if !strings.Contains(s, "fdtd2d") || !strings.Contains(s, "SHM") {
		t.Fatalf("table incomplete:\n%s", s)
	}
	// The paper's ordering must hold: Naive <= PSSM <= SHM (normalized
	// IPC increases as optimizations stack).
	naive := r.normalizedIPC("fdtd2d", scheme.Naive)
	pssm := r.normalizedIPC("fdtd2d", scheme.PSSM)
	shm := r.normalizedIPC("fdtd2d", scheme.SHM)
	if !(naive < pssm) {
		t.Errorf("fdtd2d: naive %.3f not below pssm %.3f", naive, pssm)
	}
	if shm < pssm*0.98 {
		t.Errorf("fdtd2d: shm %.3f materially below pssm %.3f", shm, pssm)
	}
	if shm < 0.85 {
		t.Errorf("fdtd2d SHM normalized IPC %.3f, want near 1", shm)
	}
}

func TestFig14BandwidthOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := quickRunner()
	_ = r.Fig14()
	naive := r.Run("fdtd2d", scheme.Naive).BandwidthOverhead()
	pssm := r.Run("fdtd2d", scheme.PSSM).BandwidthOverhead()
	shm := r.Run("fdtd2d", scheme.SHM).BandwidthOverhead()
	if !(shm < pssm && pssm < naive) {
		t.Errorf("overhead ordering violated: naive=%.3f pssm=%.3f shm=%.3f", naive, pssm, shm)
	}
}

func TestFig5Characterization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := quickRunner()
	s := r.Fig5().String()
	if !strings.Contains(s, "fdtd2d") {
		t.Fatalf("missing workload:\n%s", s)
	}
}

func TestAccuracyFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := quickRunner()
	f10 := r.Fig10().String()
	f11 := r.Fig11().String()
	if !strings.Contains(f10, "MP_Init") || !strings.Contains(f11, "MP_Runtime_RO") {
		t.Fatalf("breakdown columns missing:\n%s\n%s", f10, f11)
	}
}

func TestFig15EnergyAboveOne(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := quickRunner()
	_ = r.Fig15()
	// Secure designs must not consume less energy than the baseline.
	base := activityOf(r.Run("bfs", scheme.Baseline))
	naive := activityOf(r.Run("bfs", scheme.Naive))
	if naive.DRAMBytes <= base.DRAMBytes {
		t.Error("naive design moved fewer DRAM bytes than baseline")
	}
}

func TestTableIXStatic(t *testing.T) {
	s := TableIX().String()
	if !strings.Contains(s, "5460") {
		t.Fatalf("Table IX total missing:\n%s", s)
	}
}

// TestRunCaching counts executions through the telemetry sink, which sees
// every uncached run once: a repeated Run and a cell that two figures
// share must each execute once.
func TestRunCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := NewRunner(QuickConfig(), []string{"atax"})
	var mu sync.Mutex
	runs := map[string]int{}
	r.SetTelemetrySink(telemetry.Config{SampleInterval: 5000}, func(res gpu.Result, _ *telemetry.Collector) {
		mu.Lock()
		runs[res.Workload+"/"+res.Scheme]++
		mu.Unlock()
	})
	a := r.Run("atax", scheme.Baseline)
	b := r.Run("atax", scheme.Baseline)
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatal("cache returned different results")
	}
	// Fig. 14 and Fig. 15 share Naive, PSSM and SHM; Fig. 15 reuses Baseline.
	_ = r.Fig14()
	_ = r.Fig15()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"atax/Baseline", "atax/Naive", "atax/PSSM", "atax/SHM"} {
		if runs[cell] != 1 {
			t.Errorf("%s executed %d times, want 1", cell, runs[cell])
		}
	}
	if len(runs) != 6 {
		t.Errorf("executed cells %v, want the 6 distinct cells of Figs. 14 and 15", runs)
	}
}

// TestFigOversubQuick pins the oversubscription sweep on quick bfs to its
// rendered text in testdata. bfs's ratio columns differ from one another,
// so a ratio cell answered from the wrong configuration shows up here.
func TestFigOversubQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "oversub-bfs.txt"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(QuickConfig(), []string{"bfs"})
	got := r.FigOversub().String()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("oversubscription sweep changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestFigOversubReportsRatioCellErrors runs the sweep on a base config
// that is valid with the host tier off and invalid with it on (a page
// size that is not a power of two). The refused ratio cells must reach
// Err instead of rendering as zeros.
func TestFigOversubReportsRatioCellErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := QuickConfig()
	cfg.UVMPageBytes = 3000
	if err := cfg.Validate(); err != nil {
		t.Fatalf("tier-off base config must be valid: %v", err)
	}
	r := NewRunner(cfg, []string{"bfs"})
	_ = r.FigOversub()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "@r=") {
		t.Fatalf("Err() = %v, want a refused ratio cell", err)
	}
}

// TestSweepCellsReachOpsPlane runs the oversubscription sweep and an
// ablation under an ops plane: every distinct cell they run must register
// with it, so a live sweep reports all of its work.
func TestSweepCellsReachOpsPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p, err := obs.Start(obs.Options{Tool: "obs-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := NewRunner(QuickConfig(), []string{"bfs"})
	r.SetOps(p)
	_ = r.FigOversub()
	_ = r.AblationTrackers()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	// 6 tier-off cells, 8 rows × 3 ratios, 4 tracker points (the
	// ablation's baseline is the sweep's).
	const cells = 6 + 8*3 + 4
	if got := p.Progress().Done; got != cells {
		t.Errorf("ops plane saw %d finished cells, want %d", got, cells)
	}
}

func TestDefaultWorkloadsAreMemoryIntensive(t *testing.T) {
	r := NewRunner(QuickConfig(), nil)
	if len(r.Workloads()) != 15 {
		t.Fatalf("default workloads = %d, want 15", len(r.Workloads()))
	}
}

// TestAblationTables pins the tracker and metadata-cache ablations on
// quick fdtd2d to their rendered text in testdata: the ablations reach
// the MEE only through Config.MEE, so a change in how a value gets to the
// engine shows up here.
func TestAblationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ablation-fdtd2d.txt"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(QuickConfig(), []string{"fdtd2d"})
	got := r.AblationTrackers().String() + r.AblationMDCSize().String()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("ablation tables changed:\n%s\nwant:\n%s", got, want)
	}
}
