package experiments

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shmgpu/internal/gpu"
	"shmgpu/internal/obs"
	"shmgpu/internal/scheme"
	"shmgpu/internal/secmem"
	"shmgpu/internal/telemetry"
)

// fixedManifest is a wall-clock-free manifest so exports are byte-comparable
// across runs.
func fixedManifest() telemetry.Manifest {
	return telemetry.Manifest{Tool: "obs-test", SchemaVersion: 1, Workload: "atax", Scheme: "SHM"}
}

// TestOpsPlaneDoesNotPerturbExports runs the same cell with and without the
// live ops plane attached and requires byte-identical committed artifacts:
// the counter registry, the JSONL telemetry export, and the Prometheus
// export. This is the no-perturbation acceptance criterion end to end.
func TestOpsPlaneDoesNotPerturbExports(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tcfg := telemetry.Config{SampleInterval: 5000, CaptureEvents: true}

	export := func(orun *obs.Run) (plainRes gpu.Result, jsonl, prom []byte) {
		out, err := Execute(RunSpec{Config: QuickConfig(), Workload: "atax", Scheme: scheme.SHM, Telemetry: &tcfg, Observe: orun})
		if err != nil {
			t.Fatal(err)
		}
		res, col := out.Result, out.Collector
		orun.Done(res.Cycles, res.Completed)
		sum := TelemetrySummary(res)
		var jb, pb bytes.Buffer
		if err := telemetry.WriteJSONL(&jb, col, sum, fixedManifest()); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WritePrometheus(&pb, col, sum, fixedManifest()); err != nil {
			t.Fatal(err)
		}
		return res, jb.Bytes(), pb.Bytes()
	}

	plainRes, plainJSONL, plainProm := export(nil)

	p, err := obs.Start(obs.Options{Tool: "obs-test", TotalCells: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	obsRes, obsJSONL, obsProm := export(p.BeginRun("atax/SHM"))

	if plainRes.Cycles != obsRes.Cycles || plainRes.Instructions != obsRes.Instructions {
		t.Errorf("observed run diverged: %s vs %s", plainRes.String(), obsRes.String())
	}
	if !bytes.Equal(plainJSONL, obsJSONL) {
		t.Error("JSONL export differs with ops plane attached")
	}
	if !bytes.Equal(plainProm, obsProm) {
		t.Error("Prometheus export differs with ops plane attached")
	}
}

// wedgeWorkload is an injected stall: every warp's first instruction fetch
// blocks until release is closed, so the simulation wedges inside a tick and
// the heartbeat goes quiet.
type wedgeWorkload struct {
	release chan struct{}
}

func (w *wedgeWorkload) Name() string                { return "wedge" }
func (w *wedgeWorkload) Kernels() int                { return 1 }
func (w *wedgeWorkload) Setup(k int) gpu.KernelSetup { return gpu.KernelSetup{} }
func (w *wedgeWorkload) NewWarp(_, _, _ int) gpu.WarpProgram {
	return &wedgeWarp{w}
}

type wedgeWarp struct{ w *wedgeWorkload }

func (p *wedgeWarp) Next() (int, gpu.MemInst, bool) {
	<-p.w.release
	return 0, gpu.MemInst{}, true
}

// TestWatchdogCancelsStalledCell injects a wedged simulation under a
// cancel-armed watchdog and requires the sweep-side contract: the call
// returns (the sweep completes) with a placeholder Result marked Cancelled,
// the cell is reported stalled, and the diagnostic bundle is on disk.
func TestWatchdogCancelsStalledCell(t *testing.T) {
	dir := t.TempDir()
	p, err := obs.Start(obs.Options{
		Tool:             "obs-test",
		TotalCells:       1,
		WatchdogDeadline: 80 * time.Millisecond,
		WatchdogPoll:     10 * time.Millisecond,
		WatchdogDir:      dir,
		WatchdogCancel:   true,
		CancelGrace:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	wl := &wedgeWorkload{release: make(chan struct{})}
	t.Cleanup(func() { close(wl.release) }) // unwedge the abandoned goroutine

	r := NewRunner(QuickConfig(), []string{"atax"})
	r.SetOps(p)
	sys := gpu.NewSystem(QuickConfig(), secmem.Options{})
	orun := p.BeginRun("wedge/cell")
	sys.SetObserver(orun, 0)
	sys.SetCancel(orun.CancelFlag())

	done := make(chan gpu.Result, 1)
	go func() {
		out, _ := r.abandonable(orun, func() (RunOutput, error) { return RunOutput{Result: sys.Run(wl)}, nil })
		done <- out.Result
	}()
	var res gpu.Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep hung on the wedged cell; watchdog abandon path broken")
	}
	orun.Done(0, false)

	if !res.Cancelled {
		t.Errorf("stalled cell result not marked Cancelled: %+v", res)
	}
	if stalled := p.Stalled(); len(stalled) != 1 || stalled[0] != "wedge/cell" {
		t.Errorf("stalled cells = %v, want [wedge/cell]", stalled)
	}
	bundle := filepath.Join(dir, "stall-wedge_cell")
	for _, f := range []string{"goroutines.txt", "spans.json", "progress.json"} {
		data, err := os.ReadFile(filepath.Join(bundle, f))
		if err != nil {
			t.Errorf("bundle file %s: %v", f, err)
		} else if len(data) == 0 {
			t.Errorf("bundle file %s is empty", f)
		}
	}
}

// TestMetricsEndpointMatchesBatchExport is the scrape-at-end ≡ committed-
// counters criterion: once the metrics renderer is installed, a live
// /metrics scrape must serve byte-for-byte what the batch exporter writes.
func TestMetricsEndpointMatchesBatchExport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p, err := obs.Start(obs.Options{Tool: "obs-test", TotalCells: 1, OpsListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	addr := p.OpsAddr()

	scrape := func() []byte {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics = %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// Mid-run (before any cell commits), the endpoint serves the minimal
	// liveness payload — still valid Prometheus exposition.
	if pre := scrape(); !bytes.Contains(pre, []byte("shmgpu_ops_up 1")) {
		t.Errorf("pre-run /metrics = %q", pre)
	}

	tcfg := telemetry.Config{SampleInterval: 5000}
	orun := p.BeginRun("atax/SHM")
	out, err := Execute(RunSpec{Config: QuickConfig(), Workload: "atax", Scheme: scheme.SHM, Telemetry: &tcfg, Observe: orun})
	if err != nil {
		t.Fatal(err)
	}
	orun.Done(out.Result.Cycles, out.Result.Completed)
	col := out.Collector
	sum := TelemetrySummary(out.Result)
	m := fixedManifest()
	p.SetMetrics(func(w io.Writer) error { return telemetry.WritePrometheus(w, col, sum, m) })

	var want bytes.Buffer
	if err := telemetry.WritePrometheus(&want, col, sum, m); err != nil {
		t.Fatal(err)
	}
	if got := scrape(); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("live /metrics scrape differs from batch export (%d vs %d bytes)",
			len(got), want.Len())
	}
}
