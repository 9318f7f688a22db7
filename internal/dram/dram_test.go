package dram

import (
	"runtime"
	"testing"

	"shmgpu/internal/memdef"
	"shmgpu/internal/stats"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.QueueDepth = 8
	return cfg
}

// drain runs the channel until empty, returning completions keyed by token
// with their completion cycle. It returns the final cycle.
func drain(t *testing.T, ch *Channel, start uint64) (map[uint64]uint64, uint64) {
	t.Helper()
	done := make(map[uint64]uint64)
	cycle := start
	for i := 0; !ch.Drained(); i++ {
		if i > 1_000_000 {
			t.Fatal("channel did not drain")
		}
		for _, tok := range ch.Tick(cycle) {
			done[tok] = cycle
		}
		cycle++
	}
	return done, cycle
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Banks: 0, RowBytes: 2048, BytesPerCycleFP: 100, QueueDepth: 4},
		{Banks: 3, RowBytes: 2048, BytesPerCycleFP: 100, QueueDepth: 4},
		{Banks: 16, RowBytes: 100, BytesPerCycleFP: 100, QueueDepth: 4},
		{Banks: 16, RowBytes: 2048, BytesPerCycleFP: 0, QueueDepth: 4},
		{Banks: 16, RowBytes: 2048, BytesPerCycleFP: 100, QueueDepth: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSingleReadLatency(t *testing.T) {
	ch := NewChannel(testConfig())
	if !ch.Enqueue(Req{Local: 0, Kind: memdef.Read, Class: stats.TrafficData, Token: 1}, 0) {
		t.Fatal("enqueue failed")
	}
	done, _ := drain(t, ch, 0)
	lat := done[1]
	// Row miss: CAS 40 + row 80 + ~2 transfer.
	if lat < 120 || lat > 125 {
		t.Errorf("cold read latency = %d, want ~122", lat)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	ch := NewChannel(testConfig())
	ch.Enqueue(Req{Local: 0, Kind: memdef.Read, Token: 1}, 0)
	done1, next := drain(t, ch, 0)
	// Same row, different sector: row hit.
	ch.Enqueue(Req{Local: 32, Kind: memdef.Read, Token: 2}, next)
	done2, _ := drain(t, ch, next)
	lat1 := done1[1]
	lat2 := done2[2] - next
	if lat2 >= lat1 {
		t.Errorf("row hit latency %d not faster than cold %d", lat2, lat1)
	}
	if ch.RowHitRate() != 0.5 {
		t.Errorf("row hit rate = %v, want 0.5", ch.RowHitRate())
	}
}

func TestQueueBackpressure(t *testing.T) {
	ch := NewChannel(testConfig()) // depth 8
	for i := 0; i < 8; i++ {
		if !ch.Enqueue(Req{Local: memdef.Addr(i * 1 << 20), Kind: memdef.Read, Token: uint64(i)}, 0) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if ch.CanAccept() {
		t.Fatal("queue should be full")
	}
	if ch.Enqueue(Req{Local: 0, Kind: memdef.Read, Token: 99}, 0) {
		t.Fatal("enqueue above capacity accepted")
	}
}

func TestSustainedBandwidth(t *testing.T) {
	// Stream many sequential sectors; sustained throughput must approach
	// the configured 18.59 B/cycle.
	cfg := DefaultConfig()
	cfg.QueueDepth = 64
	ch := NewChannel(cfg)
	const n = 4000
	issued := 0
	completedLast := uint64(0)
	completions := 0
	cycle := uint64(0)
	for completions < n {
		for issued < n && ch.CanAccept() {
			ch.Enqueue(Req{Local: memdef.Addr(issued * memdef.SectorSize), Kind: memdef.Read, Token: uint64(issued)}, cycle)
			issued++
		}
		for range ch.Tick(cycle) {
			completions++
			completedLast = cycle
		}
		cycle++
		if cycle > 1_000_000 {
			t.Fatal("stream did not finish")
		}
	}
	gotBPC := float64(n*memdef.SectorSize) / float64(completedLast)
	if gotBPC < 16.5 || gotBPC > 18.7 {
		t.Errorf("sustained bandwidth = %.2f B/cycle, want ~18.6", gotBPC)
	}
	if util := ch.BusUtilization(completedLast); util < 0.95 || util > 1.01 {
		t.Errorf("bus utilization = %.3f, want ~1.0 under saturation", util)
	}
}

func TestTrafficAccounting(t *testing.T) {
	ch := NewChannel(testConfig())
	ch.Enqueue(Req{Local: 0, Kind: memdef.Read, Class: stats.TrafficData, Token: 1}, 0)
	ch.Enqueue(Req{Local: 4096, Kind: memdef.Write, Class: stats.TrafficMAC, Token: 2}, 0)
	drain(t, ch, 0)
	if got := ch.Traffic.ReadBytes[stats.TrafficData]; got != memdef.SectorSize {
		t.Errorf("data read bytes = %d", got)
	}
	if got := ch.Traffic.WriteBytes[stats.TrafficMAC]; got != memdef.SectorSize {
		t.Errorf("mac write bytes = %d", got)
	}
	if ch.Served != 2 {
		t.Errorf("served count = %d, want 2", ch.Served)
	}
}

func TestBankParallelism(t *testing.T) {
	// Two requests to different banks should overlap their row latencies:
	// total time well under 2x a single cold access.
	ch := NewChannel(testConfig())
	ch.Enqueue(Req{Local: 0, Kind: memdef.Read, Token: 1}, 0)
	ch.Enqueue(Req{Local: memdef.PartitionStride, Kind: memdef.Read, Token: 2}, 0) // next bank
	done, _ := drain(t, ch, 0)
	last := done[1]
	if done[2] > last {
		last = done[2]
	}
	if last > 140 {
		t.Errorf("two-bank pair finished at %d, want overlap (<140)", last)
	}
}

func TestSameBankSerialization(t *testing.T) {
	// Requests to the same bank, different rows, serialize on the bank.
	cfg := testConfig()
	ch := NewChannel(cfg)
	rowStride := memdef.Addr(cfg.RowBytes * cfg.Banks)
	ch.Enqueue(Req{Local: 0, Kind: memdef.Read, Token: 1}, 0)
	ch.Enqueue(Req{Local: rowStride, Kind: memdef.Read, Token: 2}, 0)
	done, _ := drain(t, ch, 0)
	if done[2] < done[1]+cfg.CASCycles {
		t.Errorf("same-bank conflict not serialized: %d then %d", done[1], done[2])
	}
}

func TestFCFSWithinBank(t *testing.T) {
	ch := NewChannel(testConfig())
	// Same bank, same row: must complete in order.
	ch.Enqueue(Req{Local: 0, Kind: memdef.Read, Token: 1}, 0)
	ch.Enqueue(Req{Local: 32, Kind: memdef.Read, Token: 2}, 0)
	ch.Enqueue(Req{Local: 64, Kind: memdef.Read, Token: 3}, 0)
	done, _ := drain(t, ch, 0)
	if !(done[1] <= done[2] && done[2] <= done[3]) {
		t.Errorf("out of order: %v", done)
	}
}

func TestDrainedAndPending(t *testing.T) {
	ch := NewChannel(testConfig())
	if !ch.Drained() {
		t.Fatal("new channel should be drained")
	}
	ch.Enqueue(Req{Local: 0, Kind: memdef.Read, Token: 1}, 0)
	if ch.Drained() || ch.Pending() != 1 {
		t.Fatal("pending request not reflected")
	}
	drain(t, ch, 0)
	if !ch.Drained() {
		t.Fatal("channel should drain")
	}
}

func TestWriteConsumesBandwidth(t *testing.T) {
	// Writes occupy the bus like reads: saturating with writes must take
	// about as long as with reads.
	cfg := DefaultConfig()
	ch := NewChannel(cfg)
	const n = 1000
	issued, completions := 0, 0
	cycle := uint64(0)
	for completions < n {
		for issued < n && ch.CanAccept() {
			ch.Enqueue(Req{Local: memdef.Addr(issued * memdef.SectorSize), Kind: memdef.Write, Token: uint64(issued)}, cycle)
			issued++
		}
		completions += len(ch.Tick(cycle))
		cycle++
	}
	gotBPC := float64(n*memdef.SectorSize) / float64(cycle)
	if gotBPC < 15 {
		t.Errorf("write bandwidth = %.2f B/cycle, too low", gotBPC)
	}
}

// saturate keeps ch's queue full with requests to pseudo-random banks and
// rows (a xorshift stream in *x) and ticks it once at cycle *now.
func saturate(ch *Channel, now, x *uint64) {
	for ch.CanAccept() {
		*x ^= *x << 13
		*x ^= *x >> 7
		*x ^= *x << 17
		ch.Enqueue(Req{Local: memdef.Addr(*x % (1 << 24) &^ (memdef.SectorSize - 1)), Kind: memdef.AccessKind(*x >> 63), Token: *x}, *now)
	}
	ch.Tick(*now)
	*now++
}

// TestChannelTickAllocFree pins the channel's steady state at zero
// allocations: the queue is a fixed slab and the completion ring and the
// Tick result buffer stop growing at their high-water marks.
func TestChannelTickAllocFree(t *testing.T) {
	ch := NewChannel(DefaultConfig())
	now, x := uint64(0), uint64(88172645463325252)
	for i := 0; i < 20000; i++ {
		saturate(ch, &now, &x)
	}
	// A GC cycle still running from setup would allocate as it finishes.
	runtime.GC()
	// One run of 2000 cycles counts every allocation exactly.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			saturate(ch, &now, &x)
		}
	}); allocs != 0 {
		t.Errorf("2000 saturated Enqueue+Tick cycles allocate %v times, want 0", allocs)
	}
}

// BenchmarkChannelSaturated is the DRAM layer's own number: one op is one
// cycle of a channel kept full with random-bank requests.
func BenchmarkChannelSaturated(b *testing.B) {
	ch := NewChannel(DefaultConfig())
	now, x := uint64(0), uint64(88172645463325252)
	for i := 0; i < 20000; i++ {
		saturate(ch, &now, &x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saturate(ch, &now, &x)
	}
}
