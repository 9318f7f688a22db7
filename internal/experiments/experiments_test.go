package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shmgpu/internal/scheme"
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

func TestRunCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	r := NewRunner(QuickConfig(), []string{"atax"})
	a := r.Run("atax", scheme.Baseline)
	b := r.Run("atax", scheme.Baseline)
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatal("cache returned different results")
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
