package dram

import (
	"math/rand"
	"testing"

	"shmgpu/internal/invariant"
	"shmgpu/internal/memdef"
	"shmgpu/internal/snapshot"
	"shmgpu/internal/stats"
)

// fuzzConfig is the channel every LoadState fuzz input is restored into.
func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.Banks, cfg.QueueDepth = 8, 16
	return cfg
}

// midStreamPayload runs a seeded stream for `cycles` cycles with invariant
// checking on and returns the channel's saved state, queue and bus busy.
func midStreamPayload(seed int64, cycles uint64) []byte {
	cfg := fuzzConfig()
	rng := rand.New(rand.NewSource(seed))
	gen := addrGen{rng: rng, banks: cfg.Banks, slicesPerRow: cfg.RowBytes / memdef.PartitionStride}
	ch := NewChannel(cfg)
	for now := uint64(0); now < cycles; now++ {
		for n := rng.Intn(3); n > 0; n-- {
			ch.Enqueue(Req{Local: gen.next(), Kind: memdef.AccessKind(rng.Intn(2)), Token: now}, now)
		}
		ch.Tick(now)
	}
	payload, _ := snapshot.Save(ch.State)
	return payload
}

// withInvariants runs f with invariant checking switched on or off.
func withInvariants(on bool, f func()) {
	prev := invariant.Enabled()
	invariant.SetEnabled(on)
	defer invariant.SetEnabled(prev)
	f()
}

// FuzzChannelLoadState mutates valid channel payloads. Every input must be
// rejected with an error or restore a channel that drains, with every
// accepted request returned exactly once; none may panic. Invariant
// checking is on, as in a restored run under -check.
func FuzzChannelLoadState(f *testing.F) {
	withInvariants(true, func() {
		f.Add(midStreamPayload(1, 300))
		f.Add(midStreamPayload(2, 2000))
		f.Add(midStreamPayload(3, 5))
	})
	f.Fuzz(func(t *testing.T, payload []byte) {
		withInvariants(true, func() {
			ch := NewChannel(fuzzConfig())
			if err := snapshot.Load(payload, ch.State); err != nil {
				return
			}
			now := ch.lastTick
			for steps := 0; !ch.Drained(); steps++ {
				if steps > 1_000_000 {
					t.Fatalf("restored channel did not drain: %d pending at cycle %d", ch.Pending(), now)
				}
				ch.Tick(now)
				now = ch.NextEvent(now)
			}
			ch.CheckConserved("fuzz", now)
		})
	})
}

// TestLoadStateRejectsDivergentState corrupts one field of a valid payload
// at a time; each corruption would restore a channel no run can reach.
func TestLoadStateRejectsDivergentState(t *testing.T) {
	cfg := fuzzConfig()
	build := func() *Channel {
		ch := NewChannel(cfg)
		// Two queued requests on busy banks and two in flight.
		ch.Enqueue(Req{Local: 0, Token: 1}, 0)
		ch.Enqueue(Req{Local: memdef.PartitionStride, Token: 2}, 0)
		ch.Tick(0)
		ch.Enqueue(Req{Local: memdef.Addr(cfg.RowBytes * cfg.Banks), Token: 3}, 1)
		ch.Enqueue(Req{Local: memdef.Addr(cfg.RowBytes*cfg.Banks) + memdef.PartitionStride, Class: stats.TrafficMAC, Token: 4}, 2)
		ch.Tick(2)
		if ch.QueueLen() != 2 || ch.Pending() != 4 {
			t.Fatalf("setup: %d queued, %d pending", ch.QueueLen(), ch.Pending())
		}
		return ch
	}
	save := func(ch *Channel) []byte {
		payload, _ := snapshot.Save(ch.State)
		return payload
	}
	load := func(payload []byte) error {
		return snapshot.Load(payload, NewChannel(cfg).State)
	}
	if err := load(save(build())); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(ch *Channel)
	}{
		{"bank disagrees with address", func(ch *Channel) {
			i := ch.banks[0].head
			ch.slots[i].bank = 3
		}},
		{"row disagrees with address", func(ch *Channel) { ch.slots[ch.banks[0].head].row++ }},
		{"arrivals decrease", func(ch *Channel) { ch.slots[ch.banks[0].head].arrival = 5 }},
		{"completion cycles decrease", func(ch *Channel) { ch.completed.At(1).cycle = ch.completed.At(0).cycle - 1 }},
		{"completion after the bus frees", func(ch *Channel) { ch.completed.At(1).cycle += 10 }},
		{"unknown traffic class", func(ch *Channel) { ch.completed.At(0).req.Class = stats.TrafficClass(stats.NumTrafficClasses) }},
		{"unknown kind", func(ch *Channel) { ch.slots[ch.banks[1].head].Kind = 7 }},
		{"bank frees beyond the clock range", func(ch *Channel) { ch.banks[2].freeAt = 1 << 60 }},
	}
	for _, c := range cases {
		ch := build()
		c.mutate(ch)
		if err := load(save(ch)); err == nil {
			t.Errorf("%s: LoadState accepted the payload", c.name)
		}
	}
	// Counters saved without invariant checking cannot be checked.
	var unchecked []byte
	withInvariants(false, func() { unchecked = save(build()) })
	withInvariants(true, func() {
		if err := load(unchecked); err == nil {
			t.Error("unchecked request counts accepted under invariant checking")
		}
	})
}
