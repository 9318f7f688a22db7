package secmem

import (
	"testing"

	"shmgpu/internal/flatmap"
	"shmgpu/internal/snapshot"
)

// TestRestoreRejectsDanglingTransactions drops one transaction reference
// before saving. Each restores as a nil *txn that a later OnDRAMComplete
// or Tick would dereference, so loading must fail instead.
func TestRestoreRejectsDanglingTransactions(t *testing.T) {
	cases := []struct {
		name string
		// drive runs m into the state under test and returns the next
		// cycle; corrupt then drops the reference.
		drive   func(m *MEE, p *fakePort) uint64
		corrupt func(m *MEE)
	}{
		{
			name: "pending data read without a transaction",
			drive: func(m *MEE, p *fakePort) uint64 {
				m.SubmitRead(rd(0x1000), 0)
				cycle := uint64(0)
				for ; pendingData(m) == nil; cycle++ {
					m.Tick(cycle)
				}
				return cycle
			},
			corrupt: func(m *MEE) { pendingData(m).txn = nil },
		},
		{
			name: "ready entry without a transaction",
			drive: func(m *MEE, p *fakePort) uint64 {
				m.SubmitRead(rd(0x1000), 0)
				cycle := uint64(0)
				for ; len(m.ready) == 0; cycle++ {
					m.Tick(cycle)
					p.deliver(m, cycle)
				}
				return cycle
			},
			corrupt: func(m *MEE) { m.ready[0].t = nil },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, p := newMEE(t, pssmOpts())
			now := tc.drive(m, p)
			restore := func() (*MEE, *fakePort, error) {
				payload, err := snapshot.Save(m.State)
				if err != nil {
					t.Fatal(err)
				}
				fresh, port := newMEE(t, pssmOpts())
				return fresh, port, snapshot.Load(payload, fresh.State)
			}
			if _, _, err := restore(); err != nil {
				t.Fatalf("valid payload rejected: %v", err)
			}
			tc.corrupt(m)
			if fresh, port, err := restore(); err == nil {
				// Run the restored MEE on its own port: a read still in
				// its outgoing queue completes there.
				for c := now; c < now+1000; c++ {
					fresh.Tick(c)
					port.deliver(fresh, c)
				}
				t.Error("restore accepted a dangling transaction reference")
			}
		})
	}
}

// pendingData returns the first live pending data read, or nil.
func pendingData(m *MEE) *pendingEntry {
	for i := range m.pending {
		if pe := &m.pending[i]; pe.live && pe.kind == pkData {
			return pe
		}
	}
	return nil
}

// TestRestoreRejectsInconsistentReferences corrupts one cross-reference a
// restored MEE would follow: the partition index System.Enqueue uses to
// pick a channel, a counter-wait entry the counter fill wakes, and the
// token a DRAM completion looks its pending slot up by. Each payload must
// restore before the corruption and be rejected after it.
func TestRestoreRejectsInconsistentReferences(t *testing.T) {
	// buffered drives one read into the outgoing queue of an MEE whose
	// port refuses every request.
	buffered := func(m *MEE, p *fakePort) {
		p.reject = true
		m.SubmitRead(rd(0x1000), 0)
		m.Tick(0)
		if m.outgoing.Len() == 0 {
			t.Fatal("no buffered request")
		}
	}
	token := func(m *MEE) *uint64 { return &m.outgoing.At(0).req.Token }
	cases := []struct {
		name    string
		drive   func(m *MEE, p *fakePort)
		corrupt func(m *MEE)
	}{
		{
			name:    "buffered request for a partition that does not exist",
			drive:   buffered,
			corrupt: func(m *MEE) { m.outgoing.At(0).part = m.cfg.NumPartitions },
		},
		{
			name: "counter-wait entry without a transaction",
			drive: func(m *MEE, p *fakePort) {
				m.SubmitRead(rd(0x1000), 0)
				for cycle := uint64(0); m.ctrWait.Empty(); cycle++ {
					m.Tick(cycle)
				}
			},
			corrupt: func(m *MEE) { flatmap.VisitMultiMapValues(&m.ctrWait, func(v **txn) { *v = nil }) },
		},
		{
			name:    "buffered token owned by another partition",
			drive:   buffered,
			corrupt: func(m *MEE) { *token(m) = TokenFor(1, *token(m)) },
		},
		{
			name:    "buffered token naming a slot past the slab",
			drive:   buffered,
			corrupt: func(m *MEE) { *token(m) = TokenFor(0, uint64(len(m.pending))) },
		},
		{
			name:    "buffered token of another generation",
			drive:   buffered,
			corrupt: func(m *MEE) { *token(m) ^= 1 << slotBits },
		},
		{
			name:    "two buffered tokens naming one slot",
			drive:   buffered,
			corrupt: func(m *MEE) { *token(m) = m.outgoing.At(1).req.Token },
		},
		{
			name:    "free stack naming a live slot",
			drive:   buffered,
			corrupt: func(m *MEE) { m.pendFree = append(m.pendFree, 0) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, p := newMEE(t, pssmOpts())
			tc.drive(m, p)
			restore := func() error {
				payload, err := snapshot.Save(m.State)
				if err != nil {
					t.Fatal(err)
				}
				fresh, _ := newMEE(t, pssmOpts())
				return snapshot.Load(payload, fresh.State)
			}
			if err := restore(); err != nil {
				t.Fatalf("valid payload rejected: %v", err)
			}
			tc.corrupt(m)
			if err := restore(); err == nil {
				t.Error("restore accepted the corrupted payload")
			}
		})
	}
}
