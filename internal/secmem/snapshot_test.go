package secmem

import (
	"testing"

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

// pendingData returns the first pending data read, or nil.
func pendingData(m *MEE) *pendingEntry {
	var found *pendingEntry
	m.pending.Range(func(_ uint64, pe *pendingEntry) bool {
		if pe.kind == pkData {
			found = pe
		}
		return found == nil
	})
	return found
}
