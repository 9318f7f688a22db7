package gpu

import (
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/secmem"
	"shmgpu/internal/stats"
)

// streamWorkload is a minimal test workload: every warp streams through its
// slice of a shared buffer, with a configurable compute:memory ratio and
// write fraction.
type streamWorkload struct {
	name       string
	bufBytes   uint64
	compute    int
	insts      int
	writeEvery int // 0 = read-only
	kernels    int
	resetAPI   bool
}

func (w *streamWorkload) Name() string { return w.name }
func (w *streamWorkload) Kernels() int { return w.kernels }

func (w *streamWorkload) Setup(k int) KernelSetup {
	ro := w.writeEvery == 0
	setup := KernelSetup{
		CopyRanges:  []AddrRange{{0, memdef.Addr(w.bufBytes)}},
		UseResetAPI: w.resetAPI,
		StreamTruths: []StreamTruth{
			{Range: AddrRange{0, memdef.Addr(w.bufBytes)}, Streaming: true},
		},
	}
	if ro {
		setup.ReadOnlyTruth = []AddrRange{{0, memdef.Addr(w.bufBytes)}}
	}
	return setup
}

type streamWarp struct {
	w      *streamWorkload
	cursor memdef.Addr
	step   memdef.Addr
	limit  memdef.Addr
	issued int
}

// NewWarp assigns warps block-cyclically (warp i handles blocks i, i+N,
// i+2N, ...), the coherent coalesced sweep real GPU grids produce: at any
// instant the active frontier is a narrow contiguous window, exactly once
// over the whole buffer.
func (w *streamWorkload) NewWarp(kernel, sm, warp int) WarpProgram {
	const smCount, warpCount = 4, 8 // matches smallConfig
	idx := uint64(sm*warpCount + warp)
	total := uint64(smCount * warpCount)
	return &streamWarp{
		w:      w,
		cursor: memdef.Addr(idx * memdef.BlockSize),
		step:   memdef.Addr(total * memdef.BlockSize),
		limit:  memdef.Addr(w.bufBytes),
	}
}

func (p *streamWarp) Next() (int, MemInst, bool) {
	if p.issued >= p.w.insts || p.cursor >= p.limit {
		return 0, MemInst{}, true
	}
	p.issued++
	base := p.cursor
	p.cursor += p.step
	sectors := make([]memdef.Addr, memdef.SectorsPerBlock)
	for i := range sectors {
		sectors[i] = base + memdef.Addr(i*memdef.SectorSize)
	}
	write := p.w.writeEvery > 0 && p.issued%p.w.writeEvery == 0
	return p.w.compute, MemInst{Sectors: sectors, Write: write, Space: memdef.SpaceGlobal}, false
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.SMs = 4
	cfg.WarpsPerSM = 8
	cfg.DeviceMemoryBytes = 48 << 20
	cfg.MaxCycles = 300_000
	return cfg
}

func baselineOpts() secmem.Options { return secmem.Options{} }

func shmOptions() secmem.Options {
	return secmem.Options{
		Enabled: true, LocalMetadata: true, SectoredMetadata: true,
		ReadOnlyOpt: true, DualGranMAC: true,
	}
}

func pssmOptions() secmem.Options {
	return secmem.Options{Enabled: true, LocalMetadata: true, SectoredMetadata: true}
}

func naiveOptions() secmem.Options { return secmem.Options{Enabled: true} }

func run(t *testing.T, cfg Config, opts secmem.Options, wl Workload) Result {
	t.Helper()
	res := NewSystem(cfg, opts).Run(wl)
	if res.Instructions == 0 {
		t.Fatalf("no instructions executed: %+v", res)
	}
	return res
}

// testStream covers a 2 MiB buffer completely: each of the 32 warps streams
// a contiguous 64 KiB slice (512 blocks).
func testStream(mem int) *streamWorkload {
	return &streamWorkload{name: "stream", bufBytes: 2 << 20, compute: 6, insts: mem, kernels: 1}
}

func TestBaselineRunsToCompletion(t *testing.T) {
	res := run(t, smallConfig(), baselineOpts(), testStream(600))
	if !res.Completed {
		t.Fatalf("baseline did not complete: %s", res.String())
	}
	if res.Traffic.MetadataBytes() != 0 {
		t.Errorf("baseline produced metadata traffic: %d", res.Traffic.MetadataBytes())
	}
	if res.IPC() <= 0 {
		t.Errorf("IPC = %v", res.IPC())
	}
	if res.Traffic.DataBytes() == 0 {
		t.Error("no data traffic")
	}
}

func TestSecureSchemesSlowerThanBaseline(t *testing.T) {
	wl := testStream(600)
	base := run(t, smallConfig(), baselineOpts(), wl)
	naive := run(t, smallConfig(), naiveOptions(), wl)
	pssm := run(t, smallConfig(), pssmOptions(), wl)
	if naive.IPC() >= base.IPC() {
		t.Errorf("naive IPC %.3f not below baseline %.3f", naive.IPC(), base.IPC())
	}
	if pssm.IPC() > base.IPC()*1.001 {
		t.Errorf("pssm IPC %.3f above baseline %.3f", pssm.IPC(), base.IPC())
	}
	// Naive must generate far more metadata traffic than PSSM.
	if naive.Traffic.MetadataBytes() <= pssm.Traffic.MetadataBytes() {
		t.Errorf("naive metadata %d not above pssm %d",
			naive.Traffic.MetadataBytes(), pssm.Traffic.MetadataBytes())
	}
}

func TestSHMBeatsPSSMOnReadOnlyStream(t *testing.T) {
	wl := testStream(600) // read-only streaming: SHM's best case
	pssm := run(t, smallConfig(), pssmOptions(), wl)
	shm := run(t, smallConfig(), shmOptions(), wl)
	if shm.BandwidthOverhead() >= pssm.BandwidthOverhead() {
		t.Errorf("SHM bw overhead %.3f not below PSSM %.3f",
			shm.BandwidthOverhead(), pssm.BandwidthOverhead())
	}
	if shm.IPC() < pssm.IPC()*0.99 {
		t.Errorf("SHM IPC %.3f more than 1%% below PSSM %.3f", shm.IPC(), pssm.IPC())
	}
	// Read-only streaming under SHM should pay no counter or BMT traffic.
	if got := shm.Traffic.Bytes(stats.TrafficCounter); got != 0 {
		t.Errorf("SHM counter traffic = %d on read-only workload", got)
	}
	if got := shm.Traffic.Bytes(stats.TrafficBMT); got != 0 {
		t.Errorf("SHM BMT traffic = %d on read-only workload", got)
	}
}

func TestWriteWorkloadTriggersTransitions(t *testing.T) {
	wl := &streamWorkload{name: "rw", bufBytes: 2 << 20, compute: 6, insts: 600, writeEvery: 4, kernels: 1}
	res := run(t, smallConfig(), shmOptions(), wl)
	if res.Reg.Get("ro_transition") == 0 {
		t.Error("no RO transitions despite writes to copied input")
	}
	if res.Traffic.Bytes(stats.TrafficCounter) == 0 {
		t.Error("no counter traffic despite writes")
	}
}

func TestMultiKernelWithResetAPI(t *testing.T) {
	wl := &streamWorkload{name: "mk", bufBytes: 2 << 20, compute: 6, insts: 150, kernels: 3, resetAPI: true}
	res := run(t, smallConfig(), shmOptions(), wl)
	if res.Reg.Get("input_readonly_reset") == 0 {
		t.Error("reset API never invoked across kernels")
	}
}

func TestMultiKernelOverwriteClearsRO(t *testing.T) {
	// Without the reset API, later-kernel copies clear RO state, so
	// counter traffic must appear in later kernels.
	wl := &streamWorkload{name: "mko", bufBytes: 2 << 20, compute: 6, insts: 150, kernels: 2}
	res := run(t, smallConfig(), shmOptions(), wl)
	if res.Traffic.Bytes(stats.TrafficCounter) == 0 {
		t.Error("overwritten inputs still treated as read-only")
	}
}

func TestOracleUpperBoundAtLeastAsGood(t *testing.T) {
	wl := testStream(600)
	shm := run(t, smallConfig(), shmOptions(), wl)
	oracleOpts := shmOptions()
	oracleOpts.OracleDetectors = true
	oracle := run(t, smallConfig(), oracleOpts, wl)
	if oracle.Traffic.Bytes(stats.TrafficMispredict) != 0 {
		t.Error("oracle design charged mispredict traffic")
	}
	if oracle.Traffic.MetadataBytes() > shm.Traffic.MetadataBytes() {
		t.Errorf("oracle metadata %d above detector-based %d",
			oracle.Traffic.MetadataBytes(), shm.Traffic.MetadataBytes())
	}
}

func TestAccuracyTracking(t *testing.T) {
	opts := shmOptions()
	opts.TrackAccuracy = true
	res := run(t, smallConfig(), opts, testStream(600))
	if res.ROAccuracy.Total() == 0 || res.StreamAccuracy.Total() == 0 {
		t.Fatalf("accuracy not tracked: ro=%d st=%d",
			res.ROAccuracy.Total(), res.StreamAccuracy.Total())
	}
	// Streaming workload: streaming predictions should be mostly right.
	if acc, _ := res.StreamAccuracy.Accuracy(); acc < 0.6 {
		t.Errorf("streaming accuracy %.2f unreasonably low for a pure stream", acc)
	}
}

func TestVictimCacheMode(t *testing.T) {
	// High-miss-rate streaming with victim mode: expect pushes/hits > 0.
	opts := shmOptions()
	opts.VictimL2 = true
	wl := &streamWorkload{name: "vc", bufBytes: 8 << 20, compute: 2, insts: 800, writeEvery: 3, kernels: 1}
	res := run(t, smallConfig(), opts, wl)
	if res.VictimPushes == 0 {
		t.Skip("victim mode never activated (miss rate below threshold in this configuration)")
	}
	if res.Reg.Get("victim_hit") == 0 {
		t.Log("victim cache active but never hit; acceptable for streaming metadata")
	}
}

func TestResultString(t *testing.T) {
	res := run(t, smallConfig(), baselineOpts(), testStream(50))
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestDeterminism(t *testing.T) {
	wl := testStream(600)
	a := run(t, smallConfig(), shmOptions(), wl)
	b := run(t, smallConfig(), shmOptions(), &streamWorkload{name: "stream", bufBytes: 2 << 20, compute: 6, insts: 600, kernels: 1})
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions ||
		a.Traffic.TotalBytes() != b.Traffic.TotalBytes() {
		t.Errorf("runs differ: %s vs %s", a.String(), b.String())
	}
}
