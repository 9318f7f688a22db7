package gpu

import (
	"testing"

	"shmgpu/internal/memdef"
)

// twoBankAddrs finds two physical block addresses that route to the same
// partition but different L2 banks.
func twoBankAddrs(s *System) (a, b memdef.Addr, part int) {
	pa, la := s.pmap.ToLocal(0)
	bankA := s.bankOf(la)
	for addr := memdef.Addr(memdef.BlockSize); addr < 1<<20; addr += memdef.BlockSize {
		p, l := s.pmap.ToLocal(addr)
		if p == pa && s.bankOf(l) != bankA {
			return 0, addr, pa
		}
	}
	panic("no second bank found in the first 1 MB")
}

// TestXbarBackpressureDepth pins the crossbar admission rule: a partition
// queue accepts exactly XbarQueueDepth requests, then back-pressures the SMs
// (acceptRequest returns false) until delivery makes room. The depth is
// configuration, not a hardcoded constant.
func TestXbarBackpressureDepth(t *testing.T) {
	for _, depth := range []int{4, 64} {
		cfg := smallConfig()
		cfg.XbarQueueDepth = depth
		s := NewSystem(cfg, baselineOpts())
		r := smRequest{addr: 0, space: memdef.SpaceGlobal, sm: 0}
		for i := 0; i < depth; i++ {
			if !s.acceptRequest(r) {
				t.Fatalf("depth=%d: request %d rejected below capacity", depth, i)
			}
		}
		if s.acceptRequest(r) {
			t.Errorf("depth=%d: request %d accepted beyond capacity", depth, depth)
		}
		part, _ := s.pmap.ToLocal(r.addr)
		if got := s.toPart[part].Len(); got != depth {
			t.Errorf("depth=%d: queue holds %d entries, want %d", depth, got, depth)
		}
	}
}

// TestXbarQueueDepthValidation pins that a non-positive depth is a
// configuration error rather than a silently wedged crossbar.
func TestXbarQueueDepthValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.XbarQueueDepth = 0
	if err := cfg.Validate(); err == nil {
		t.Error("XbarQueueDepth=0 passed Validate; a zero-depth crossbar can never accept a request")
	}
}

// TestXbarMaturityGate pins the interconnect latency: an accepted request is
// not delivered to its L2 bank before XbarLatency cycles have elapsed, and is
// delivered once they have.
func TestXbarMaturityGate(t *testing.T) {
	cfg := smallConfig()
	s := NewSystem(cfg, baselineOpts())
	r := smRequest{addr: 0, space: memdef.SpaceGlobal, sm: -1}
	s.tickNow = 0
	if !s.acceptRequest(r) {
		t.Fatal("empty queue rejected a request")
	}
	part, _ := s.pmap.ToLocal(r.addr)

	s.tickOnce(cfg.XbarLatency - 1)
	if s.toPart[part].Len() != 1 {
		t.Fatalf("request delivered %d cycles early", 1)
	}
	s.tickOnce(cfg.XbarLatency)
	if s.toPart[part].Len() != 0 {
		t.Error("matured request not delivered at cycle XbarLatency")
	}
}

// TestXbarHeadOfLineBlocking pins the crossbar's FIFO-link semantics: when
// the head entry's target bank is full, delivery stops for the whole
// partition queue — a younger matured request must wait behind the blocked
// head even though its own (different) target bank has room. The crossbar
// port is a FIFO link, not a router; reordering around a blocked head would
// change miss interleaving everywhere.
func TestXbarHeadOfLineBlocking(t *testing.T) {
	cfg := smallConfig()
	s := NewSystem(cfg, baselineOpts())
	addrA, addrB, part := twoBankAddrs(s)

	// Fill bank A's input queue to capacity so the head can't deliver.
	_, localA := s.pmap.ToLocal(addrA)
	bankA := s.l2[part][s.bankOf(localA)]
	for i := 0; bankA.canAccept(); i++ {
		bankA.enqueue(memdef.Request{Phys: addrA, Local: localA, Partition: int16(part),
			Kind: memdef.Read, Space: memdef.SpaceGlobal, SM: -1}, 0)
	}

	s.tickNow = 0
	if !s.acceptRequest(smRequest{addr: addrA, space: memdef.SpaceGlobal, sm: -1}) {
		t.Fatal("head request rejected")
	}
	if !s.acceptRequest(smRequest{addr: addrB, space: memdef.SpaceGlobal, sm: -1}) {
		t.Fatal("younger request rejected")
	}

	_, localB := s.pmap.ToLocal(addrB)
	bankB := s.l2[part][s.bankOf(localB)]
	if !bankB.canAccept() {
		t.Fatal("bank B unexpectedly full; test cannot distinguish HoL blocking")
	}

	// Both entries matured; head's bank is full at delivery time, so neither
	// may leave the queue — the younger one is blocked behind the head.
	s.tickOnce(cfg.XbarLatency)
	if got := s.toPart[part].Len(); got != 2 {
		t.Errorf("after blocked-head tick, queue holds %d entries, want 2 (head-of-line blocking)", got)
	}
}
