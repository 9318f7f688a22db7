package secmem

import (
	"testing"

	"shmgpu/internal/dram"
	"shmgpu/internal/memdef"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/stats"
)

// fakePort is a deterministic DRAM stand-in: every request completes after
// a fixed latency. It accumulates per-class traffic like a real channel.
type fakePort struct {
	latency uint64
	inj     []struct {
		token uint64
		at    uint64
	}
	Traffic stats.Traffic
	reject  bool
}

func (p *fakePort) Enqueue(part int, r dram.Req, now uint64) bool {
	if p.reject {
		return false
	}
	if r.Kind == memdef.Read {
		p.Traffic.AddRead(r.Class, memdef.SectorSize)
	} else {
		p.Traffic.AddWrite(r.Class, memdef.SectorSize)
	}
	p.inj = append(p.inj, struct {
		token uint64
		at    uint64
	}{r.Token, now + p.latency})
	return true
}

// deliver routes matured completions back to the MEE.
func (p *fakePort) deliver(m *MEE, now uint64) {
	rest := p.inj[:0]
	for _, c := range p.inj {
		if c.at <= now {
			m.OnDRAMComplete(c.token, now)
		} else {
			rest = append(rest, c)
		}
	}
	p.inj = rest
}

const testProtected = 1 << 20

func newMEE(t *testing.T, opts Options) (*MEE, *fakePort) {
	t.Helper()
	port := &fakePort{latency: 100}
	cfg := DefaultConfig(opts, 0, 12, testProtected)
	return NewMEE(cfg, port), port
}

// runUntilResponse ticks until the MEE returns n read responses.
func runUntilResponse(t *testing.T, m *MEE, p *fakePort, start uint64, n int) (responses []memdef.Request, end uint64) {
	t.Helper()
	cycle := start
	for len(responses) < n {
		responses = append(responses, m.Tick(cycle)...)
		p.deliver(m, cycle)
		cycle++
		if cycle > start+1_000_000 {
			t.Fatalf("no response after 1M cycles (%d/%d)", len(responses), n)
		}
	}
	return responses, cycle
}

func shmOpts() Options {
	return Options{
		Enabled: true, LocalMetadata: true, SectoredMetadata: true,
		ReadOnlyOpt: true, DualGranMAC: true,
	}
}

func pssmOpts() Options {
	return Options{Enabled: true, LocalMetadata: true, SectoredMetadata: true}
}

func naiveOpts() Options {
	return Options{Enabled: true}
}

func rd(local memdef.Addr) memdef.Request {
	return memdef.Request{Local: local, Phys: local, Partition: 0, Kind: memdef.Read, Space: memdef.SpaceGlobal}
}

func wr(local memdef.Addr) memdef.Request {
	r := rd(local)
	r.Kind = memdef.Write
	return r
}

func TestDisabledPassthrough(t *testing.T) {
	m, p := newMEE(t, Options{})
	if !m.SubmitRead(rd(0x1000), 0) {
		t.Fatal("submit failed")
	}
	resp, _ := runUntilResponse(t, m, p, 0, 1)
	if resp[0].Local != 0x1000 {
		t.Fatalf("wrong response %v", resp[0])
	}
	if p.Traffic.MetadataBytes() != 0 {
		t.Fatal("baseline generated metadata traffic")
	}
	if p.Traffic.DataBytes() != memdef.SectorSize {
		t.Fatalf("data bytes = %d", p.Traffic.DataBytes())
	}
}

func TestPSSMReadGeneratesMetadataTraffic(t *testing.T) {
	m, p := newMEE(t, pssmOpts())
	m.SubmitRead(rd(0x1000), 0)
	runUntilResponse(t, m, p, 0, 1)
	if p.Traffic.Bytes(stats.TrafficCounter) == 0 {
		t.Error("no counter traffic on cold read")
	}
	if p.Traffic.Bytes(stats.TrafficMAC) == 0 {
		t.Error("no MAC traffic on cold read")
	}
	if p.Traffic.Bytes(stats.TrafficBMT) == 0 {
		t.Error("no BMT traffic on cold counter miss")
	}
}

func TestMetadataCachingEliminatesRefetch(t *testing.T) {
	m, p := newMEE(t, pssmOpts())
	m.SubmitRead(rd(0x1000), 0)
	_, end := runUntilResponse(t, m, p, 0, 1)
	before := p.Traffic.MetadataBytes()
	// Adjacent sector in the same block: same counter sector, same MAC
	// sector, no BMT walk (counter hits).
	m.SubmitRead(rd(0x1020), end)
	runUntilResponse(t, m, p, end, 1)
	if got := p.Traffic.MetadataBytes(); got != before {
		t.Errorf("warm read generated %d metadata bytes", got-before)
	}
}

func TestReadLatencyIncludesAES(t *testing.T) {
	// With a counter-cache hit, response time ≈ data latency vs AES
	// latency (overlapped), so ~ max(100, 40)+1+processing.
	m, p := newMEE(t, pssmOpts())
	m.SubmitRead(rd(0x1000), 0)
	_, end := runUntilResponse(t, m, p, 0, 1)
	// Cold: counter fetch (100) then AES (40) > data (100): ≈141.
	if end < 135 || end > 160 {
		t.Errorf("cold read completed at %d, want ~141-150", end)
	}
	// Warm read: counter hit at submit → AES overlaps data fetch: ≈101.
	m.SubmitRead(rd(0x1020), end)
	_, end2 := runUntilResponse(t, m, p, end, 1)
	lat := end2 - end
	if lat < 95 || lat > 120 {
		t.Errorf("warm read latency = %d, want ~101-110", lat)
	}
}

func TestNaiveFetchesFullMetadataBlocks(t *testing.T) {
	mN, pN := newMEE(t, naiveOpts())
	mP, pP := newMEE(t, pssmOpts())
	mN.SubmitRead(rd(0x1000), 0)
	mP.SubmitRead(rd(0x1000), 0)
	runUntilResponse(t, mN, pN, 0, 1)
	runUntilResponse(t, mP, pP, 0, 1)
	if pN.Traffic.Bytes(stats.TrafficCounter) <= pP.Traffic.Bytes(stats.TrafficCounter) {
		t.Errorf("naive counter traffic %d not above sectored %d",
			pN.Traffic.Bytes(stats.TrafficCounter), pP.Traffic.Bytes(stats.TrafficCounter))
	}
}

func TestReadOnlySkipsCounterAndBMT(t *testing.T) {
	m, p := newMEE(t, shmOpts())
	m.MarkInputRange(0, memdef.RegionSize)
	m.SubmitRead(rd(0x1000), 0)
	runUntilResponse(t, m, p, 0, 1)
	if got := p.Traffic.Bytes(stats.TrafficCounter); got != 0 {
		t.Errorf("RO read fetched %d counter bytes", got)
	}
	if got := p.Traffic.Bytes(stats.TrafficBMT); got != 0 {
		t.Errorf("RO read walked the BMT: %d bytes", got)
	}
	// MAC is still required (integrity without freshness).
	if p.Traffic.Bytes(stats.TrafficMAC) == 0 {
		t.Error("RO read skipped the MAC")
	}
}

func TestConstantSpaceIsReadOnlyByNature(t *testing.T) {
	m, p := newMEE(t, shmOpts())
	r := rd(0x2000)
	r.Space = memdef.SpaceConstant
	m.SubmitRead(r, 0)
	runUntilResponse(t, m, p, 0, 1)
	if p.Traffic.Bytes(stats.TrafficCounter) != 0 || p.Traffic.Bytes(stats.TrafficBMT) != 0 {
		t.Error("constant-space read paid counter/BMT traffic")
	}
}

func TestROTransitionOnWrite(t *testing.T) {
	m, p := newMEE(t, shmOpts())
	m.MarkInputRange(0, memdef.RegionSize)
	// Write into the RO region: transition + counter propagation burst.
	m.SubmitWrite(wr(0x1000), 0)
	for c := uint64(0); c < 500; c++ {
		m.Tick(c)
		p.deliver(m, c)
	}
	if m.Reg.Get("ro_transition") != 1 {
		t.Fatalf("transitions = %d, want 1", m.Reg.Get("ro_transition"))
	}
	// Subsequent reads in the region now fetch counters.
	before := p.Traffic.Bytes(stats.TrafficCounter)
	m.SubmitRead(rd(0x3000), 600) // same 16 KB region, different counter sector? same region
	runUntilResponse(t, m, p, 600, 1)
	if p.Traffic.Bytes(stats.TrafficCounter) == before && m.ctrCache.Stats.Hits == 0 {
		t.Error("post-transition read neither fetched nor hit counters")
	}
	// And the write produced dirty counter state that must eventually
	// write back: force pressure later (not asserted here).
}

func TestDualGranMACReducesMACTraffic(t *testing.T) {
	// Stream 4 KB (one chunk, 128 sectors). With chunk MACs, the MAC
	// traffic should be one sector (covering 4 chunk MACs); with block
	// MACs it is 8 sectors (32 block MACs × 8 B = 256 B).
	stream := func(opts Options) *fakePort {
		m, p := newMEE(t, opts)
		m.MarkInputRange(0, 1<<20)
		cycle := uint64(0)
		for b := 0; b < memdef.BlocksPerChunk; b++ {
			for s := 0; s < memdef.SectorsPerBlock; s++ {
				a := memdef.Addr(b*memdef.BlockSize + s*memdef.SectorSize)
				for !m.SubmitRead(rd(a), cycle) {
					m.Tick(cycle)
					p.deliver(m, cycle)
					cycle++
				}
			}
		}
		for i := 0; i < 2000; i++ {
			m.Tick(cycle)
			p.deliver(m, cycle)
			cycle++
		}
		return p
	}
	withChunk := stream(shmOpts())
	noChunk := stream(Options{Enabled: true, LocalMetadata: true, SectoredMetadata: true, ReadOnlyOpt: true})
	if withChunk.Traffic.Bytes(stats.TrafficMAC) >= noChunk.Traffic.Bytes(stats.TrafficMAC) {
		t.Errorf("chunk MAC traffic %d not below block MAC traffic %d",
			withChunk.Traffic.Bytes(stats.TrafficMAC), noChunk.Traffic.Bytes(stats.TrafficMAC))
	}
}

func TestCommonCountersSkipFetchUntilDiverged(t *testing.T) {
	opts := pssmOpts()
	opts.CommonCounters = true
	m, p := newMEE(t, opts)
	m.SubmitRead(rd(0x1000), 0)
	_, end := runUntilResponse(t, m, p, 0, 1)
	if got := p.Traffic.Bytes(stats.TrafficCounter); got != 0 {
		t.Errorf("common-counter read fetched %d counter bytes", got)
	}
	// A write diverges the page.
	m.SubmitWrite(wr(0x1000), end)
	for c := end; c < end+300; c++ {
		m.Tick(c)
		p.deliver(m, c)
	}
	if m.Reg.Get("cctr_diverged") != 1 {
		t.Fatalf("diverged pages = %d, want 1", m.Reg.Get("cctr_diverged"))
	}
}

func TestMispredictRandomChunkChargesRecovery(t *testing.T) {
	// Access a chunk randomly (few blocks, many accesses) in a non-RO
	// region: predicted streaming (init), detected random → the paper's
	// Table III says re-fetch all data blocks in the chunk.
	m, p := newMEE(t, shmOpts())
	cycle := uint64(0)
	// Arm monitoring of the target chunk (monitor-ahead allocates the
	// tracker MonitorLead chunks above the observed access), then access
	// the armed chunk sparsely: a random pattern in a non-RO region.
	lead := m.Config().Streaming.MonitorLead
	armed := memdef.Addr(lead * memdef.ChunkSize)
	m.SubmitRead(rd(0), cycle)
	for i := 0; i < 40; i++ {
		a := armed + memdef.Addr((i%2)*memdef.BlockSize)
		for !m.SubmitRead(rd(a), cycle) {
			m.Tick(cycle)
			p.deliver(m, cycle)
			cycle++
		}
		m.Tick(cycle)
		p.deliver(m, cycle)
		cycle++
	}
	// Run past the MAT timeout so the partial-coverage phase finalizes.
	for i := 0; i < 16000; i++ {
		m.Tick(cycle)
		p.deliver(m, cycle)
		cycle++
	}
	if m.Reg.Get("mp_refetch_chunk_data") == 0 {
		t.Fatal("random-chunk misprediction did not trigger data re-fetch")
	}
	if p.Traffic.Bytes(stats.TrafficMispredict) == 0 {
		t.Fatal("no mispredict traffic charged")
	}
}

func TestOracleDetectorsAvoidMispredicts(t *testing.T) {
	opts := shmOpts()
	opts.OracleDetectors = true
	m, p := newMEE(t, opts)
	m.OraclePreloadStreaming(0, 1<<20, false) // truth: random
	cycle := uint64(0)
	for i := 0; i < 40; i++ {
		a := memdef.Addr((i % 2) * memdef.BlockSize)
		for !m.SubmitRead(rd(a), cycle) {
			m.Tick(cycle)
			p.deliver(m, cycle)
			cycle++
		}
		m.Tick(cycle)
		p.deliver(m, cycle)
		cycle++
	}
	for i := 0; i < 2000; i++ {
		m.Tick(cycle)
		p.deliver(m, cycle)
		cycle++
	}
	if got := p.Traffic.Bytes(stats.TrafficMispredict); got != 0 {
		t.Errorf("oracle design charged %d mispredict bytes", got)
	}
}

func TestInputReadOnlyReset(t *testing.T) {
	m, p := newMEE(t, shmOpts())
	m.MarkInputRange(0, memdef.RegionSize)
	// Kill the RO state with a write.
	m.SubmitWrite(wr(0x100), 0)
	cycle := uint64(0)
	for ; cycle < 500; cycle++ {
		m.Tick(cycle)
		p.deliver(m, cycle)
	}
	shared := m.SharedCounter()
	m.InputReadOnlyReset(0, memdef.RegionSize, cycle)
	if m.SharedCounter() <= shared {
		t.Error("shared counter not advanced by reset")
	}
	if m.Reg.Get("input_readonly_reset") != 1 {
		t.Error("reset not recorded")
	}
	// Scan traffic charged as counter reads.
	for ; cycle < 1200; cycle++ {
		m.Tick(cycle)
		p.deliver(m, cycle)
	}
	// Region is RO again: a read skips counters.
	before := p.Traffic.Bytes(stats.TrafficCounter)
	m.SubmitRead(rd(0x200), cycle)
	runUntilResponse(t, m, p, cycle, 1)
	if p.Traffic.Bytes(stats.TrafficCounter) != before {
		t.Error("read after reset still fetches counters")
	}
}

func TestHostOverwriteClearsRO(t *testing.T) {
	m, _ := newMEE(t, shmOpts())
	m.MarkInputRange(0, memdef.RegionSize)
	m.HostOverwrite(0, memdef.RegionSize)
	r := rd(0x100)
	if m.isReadOnly(r) {
		t.Fatal("region still RO after host overwrite")
	}
}

func TestInputQueueBackpressure(t *testing.T) {
	m, _ := newMEE(t, pssmOpts())
	n := 0
	for m.SubmitRead(rd(memdef.Addr(n*memdef.SectorSize)), 0) {
		n++
		if n > 10000 {
			t.Fatal("input queue never fills")
		}
	}
	if n != m.Config().InputQueue {
		t.Errorf("accepted %d, want %d", n, m.Config().InputQueue)
	}
}

func TestVictimCacheHook(t *testing.T) {
	opts := shmOpts()
	opts.VictimL2 = true
	m, p := newMEE(t, opts)
	v := &fakeVictim{active: true, present: map[memdef.Addr]bool{}}
	m.SetVictimCache(v)
	// Preload the victim with the MAC sector the first read will want.
	macSec := memdef.SectorAddr(m.Layout().ChunkMACAddr(0x1000))
	v.present[macSec] = true
	m.SubmitRead(rd(0x1000), 0)
	runUntilResponse(t, m, p, 0, 1)
	if m.Reg.Get("victim_hit") == 0 {
		t.Error("victim cache never hit")
	}
	if p.Traffic.Bytes(stats.TrafficMAC) != 0 {
		t.Error("MAC fetched from DRAM despite victim hit")
	}
}

type fakeVictim struct {
	active  bool
	present map[memdef.Addr]bool
	pushes  int
}

func (v *fakeVictim) PushVictim(addr memdef.Addr) { v.present[addr] = true; v.pushes++ }
func (v *fakeVictim) ProbeVictim(addr memdef.Addr) bool {
	if v.present[addr] {
		delete(v.present, addr)
		return true
	}
	return false
}
func (v *fakeVictim) VictimActive() bool { return v.active }

func TestAccuracyHarnessWiring(t *testing.T) {
	opts := shmOpts()
	opts.TrackAccuracy = true
	m, p := newMEE(t, opts)
	m.MarkInputRange(0, memdef.RegionSize)
	m.SubmitRead(rd(0x100), 0)
	runUntilResponse(t, m, p, 0, 1)
	ro, st := m.AccuracyResults()
	if ro.Total() != 1 {
		t.Errorf("ro predictions = %d, want 1", ro.Total())
	}
	if st.Total() != 1 {
		t.Errorf("st predictions = %d, want 1", st.Total())
	}
}

func TestIdle(t *testing.T) {
	m, p := newMEE(t, pssmOpts())
	if !m.Idle() {
		t.Fatal("fresh MEE not idle")
	}
	m.SubmitRead(rd(0), 0)
	if m.Idle() {
		t.Fatal("MEE idle with queued work")
	}
	_, end := runUntilResponse(t, m, p, 0, 1)
	for c := end; c < end+500; c++ {
		m.Tick(c)
		p.deliver(m, c)
	}
	if !m.Idle() {
		t.Fatal("MEE not idle after drain")
	}
}

func TestFlushKernelFinalizesMATs(t *testing.T) {
	m, p := newMEE(t, shmOpts())
	// Arm the monitored chunk, then give it a few accesses: tracker
	// active with an incomplete window.
	lead := m.Config().Streaming.MonitorLead
	armed := memdef.Addr(lead * memdef.ChunkSize)
	m.SubmitRead(rd(0), 0)
	for i := 0; i < 5; i++ {
		m.SubmitRead(rd(armed+memdef.Addr(i*memdef.BlockSize)), 0)
	}
	cycle := uint64(0)
	for ; cycle < 500; cycle++ {
		m.Tick(cycle)
		p.deliver(m, cycle)
	}
	m.FlushKernel(cycle)
	// Partial coverage → detected random → predictor trained to random.
	if m.stPred.Predict(armed) {
		t.Error("flush did not train predictor from partial window")
	}
}

// routedPort records which partition each request was sent to.
type routedPort struct {
	fakePort
	parts map[int]int
}

func (p *routedPort) Enqueue(part int, r dram.Req, now uint64) bool {
	if p.parts == nil {
		p.parts = map[int]int{}
	}
	p.parts[part]++
	return p.fakePort.Enqueue(part, r, now)
}

func TestNaiveMetadataCrossesPartitions(t *testing.T) {
	// Under physical-address metadata (naive), counter/MAC/BMT addresses
	// scatter across partitions; this MEE (partition 0) must route some
	// metadata requests to other partitions' channels.
	port := &routedPort{fakePort: fakePort{latency: 50}}
	cfg := DefaultConfig(naiveOpts(), 0, 12, testProtected)
	m := NewMEE(cfg, port)
	cycle := uint64(0)
	for i := 0; i < 32; i++ {
		a := memdef.Addr(i * 4096)
		for !m.SubmitRead(memdef.Request{Local: a, Phys: a, Kind: memdef.Read, Space: memdef.SpaceGlobal}, cycle) {
			m.Tick(cycle)
			port.deliver(m, cycle)
			cycle++
		}
	}
	for i := 0; i < 3000; i++ {
		m.Tick(cycle)
		port.deliver(m, cycle)
		cycle++
	}
	others := 0
	for p, n := range port.parts {
		if p != 0 {
			others += n
		}
	}
	if others == 0 {
		t.Fatal("naive metadata never left the home partition")
	}
}

func TestPSSMMetadataStaysLocal(t *testing.T) {
	port := &routedPort{fakePort: fakePort{latency: 50}}
	cfg := DefaultConfig(pssmOpts(), 3, 12, testProtected)
	m := NewMEE(cfg, port)
	cycle := uint64(0)
	for i := 0; i < 32; i++ {
		a := memdef.Addr(i * 4096)
		for !m.SubmitRead(memdef.Request{Local: a, Phys: a, Partition: 3, Kind: memdef.Read, Space: memdef.SpaceGlobal}, cycle) {
			m.Tick(cycle)
			port.deliver(m, cycle)
			cycle++
		}
	}
	for i := 0; i < 3000; i++ {
		m.Tick(cycle)
		port.deliver(m, cycle)
		cycle++
	}
	for p := range port.parts {
		if p != 3 {
			t.Fatalf("PSSM metadata routed to partition %d", p)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, part := range []int{0, 3, 11} {
		tok := TokenFor(part, 12345)
		if got := TokenOwner(tok); got != part {
			t.Errorf("TokenOwner(TokenFor(%d)) = %d", part, got)
		}
	}
	if TokenOwner(0) != -1 {
		t.Error("zero token should have no owner")
	}
}

// TestMergeCapOverflowCountsMdcBlocked sends 18 reads under one counter
// sector (16 blocks, 2 KB) before its fetch returns: the first allocates
// the MSHR, the next 16 merge into it up to MaxMergesPerMSHR, and the
// last overflows the merge cap. That one overflow is the only Blocked
// lookup (the reads spread over four MAC sectors, and the BMT walk stops
// at the overflowing read), so the merged registry counts mdc_blocked
// once; a run without an overflow has no mdc_blocked counter at all.
func TestMergeCapOverflowCountsMdcBlocked(t *testing.T) {
	merged := func(m *MEE) *stats.Registry {
		m.FoldCounters()
		var reg stats.Registry
		reg.Merge(&m.Reg)
		return &reg
	}
	run := func(reads int) *MEE {
		m, p := newMEE(t, pssmOpts())
		for i := 0; i < reads; i++ {
			a := memdef.Addr(i%16*memdef.BlockSize + i/16*memdef.SectorSize)
			if !m.SubmitRead(rd(a), 0) {
				t.Fatalf("read %d refused", i)
			}
		}
		runUntilResponse(t, m, p, 0, reads)
		return m
	}
	m := run(18)
	if st, _, _ := m.CacheStats(); st.MSHRMerges != 16 {
		t.Fatalf("counter cache merged %d reads, want 16", st.MSHRMerges)
	}
	payload, err := snapshot.Save(m.State)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged(m).Get("mdc_blocked"); got != 1 {
		t.Errorf("mdc_blocked = %d, want 1", got)
	}
	restored, _ := newMEE(t, pssmOpts())
	if err := snapshot.Load(payload, restored.State); err != nil {
		t.Fatal(err)
	}
	if got := merged(restored).Get("mdc_blocked"); got != 1 {
		t.Errorf("mdc_blocked after a snapshot round trip = %d, want 1", got)
	}
	for _, n := range merged(run(17)).Names() {
		if n == "mdc_blocked" {
			t.Error("mdc_blocked present without an overflow")
		}
	}
}

// TestPendingSlabTokens completes DRAM requests out of order and checks
// that the pending slab reuses released slots, answers each live token
// once, and ignores stale, foreign and out-of-range tokens.
func TestPendingSlabTokens(t *testing.T) {
	m, p := newMEE(t, Options{})
	for i := 0; i < 4; i++ {
		m.SubmitRead(rd(memdef.Addr(i)*memdef.BlockSize), 0)
	}
	for c := uint64(0); c < 4; c++ {
		m.Tick(c)
	}
	if len(p.inj) != 4 || m.pendLive != 4 {
		t.Fatalf("%d requests sent, %d pending; want 4 and 4", len(p.inj), m.pendLive)
	}
	tokens := make([]uint64, 4)
	for i, in := range p.inj {
		tokens[i] = in.token
	}
	p.inj = p.inj[:0]
	ignored := func(what string, tok uint64) {
		t.Helper()
		live := m.pendLive
		m.OnDRAMComplete(tok, 10)
		if m.pendLive != live {
			t.Errorf("%s token %#x completed a request", what, tok)
		}
	}
	// Out of order: the third, then the first.
	m.OnDRAMComplete(tokens[2], 10)
	m.OnDRAMComplete(tokens[0], 10)
	if m.pendLive != 2 {
		t.Fatalf("%d pending after two completions, want 2", m.pendLive)
	}
	ignored("repeated", tokens[2])
	ignored("foreign", TokenFor(1, tokens[1]))
	ignored("out-of-range", TokenFor(0, len64(m.pending)))
	// A new request reuses the last released slot under a new generation;
	// the old token for that slot stays dead.
	m.SubmitRead(rd(0x10000), 10)
	done := len(m.Tick(10))
	done += len(m.Tick(11))
	if len(m.pending) != 4 || len(p.inj) != 1 {
		t.Fatalf("slab grew to %d slots for %d new requests", len(m.pending), len(p.inj))
	}
	fresh := p.inj[0].token
	if fresh&slotMask != tokens[0]&slotMask || fresh == tokens[0] {
		t.Fatalf("new token %#x does not reuse slot of %#x under a new generation", fresh, tokens[0])
	}
	ignored("stale", tokens[0])
	for _, tok := range []uint64{tokens[1], tokens[3], fresh} {
		m.OnDRAMComplete(tok, 12)
	}
	resp, _ := runUntilResponse(t, m, p, 12, 5-done)
	if done+len(resp) != 5 || !m.Idle() {
		t.Fatalf("%d responses, idle %v; want 5 and idle", done+len(resp), m.Idle())
	}
}

func len64[T any](s []T) uint64 { return uint64(len(s)) }
