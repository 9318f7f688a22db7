package gpu

import (
	"shmgpu/internal/cache"
	"shmgpu/internal/flatmap"
	"shmgpu/internal/memdef"
	"shmgpu/internal/ringbuf"
	"shmgpu/internal/telemetry"
)

// warpState tracks one resident warp.
type warpState struct {
	prog WarpProgram
	// computeLeft is the number of 1-cycle compute instructions still to
	// issue before the pending memory instruction.
	computeLeft int
	// pendingMem is the memory instruction to issue once computeLeft
	// drains; valid when haveMem.
	pendingMem MemInst
	haveMem    bool
	// outstanding counts sector responses the warp is waiting on.
	outstanding int
	// readyAt delays the warp after an L1 hit.
	readyAt uint64
	done    bool
	// stalls is prog's StallPredictor extension, or nil.
	stalls StallPredictor
}

// newWarpState installs a fresh program, caching its StallPredictor.
func newWarpState(prog WarpProgram) warpState {
	stalls, _ := prog.(StallPredictor)
	return warpState{prog: prog, stalls: stalls}
}

// stallPending reports whether the warp's next issue is a scheduling
// bubble from a program that can predict its stalls. The warp is a bubble
// warp — its issue changes nothing but its own back-off — when
// StallsAgain also vouches that the Next call after the bubble stalls too.
func (w *warpState) stallPending() bool {
	return w.computeLeft == 0 && w.haveMem && w.pendingMem.Stall && w.stalls != nil
}

const (
	// missQueueThrottle is the miss-queue length above which an SM stops
	// issuing until the crossbar drains it.
	missQueueThrottle = 32
	// bubbleBackoff is how long a warp waits after a scheduling bubble
	// before asking its program again.
	bubbleBackoff = 16
)

// smRequest is a sector request traveling from an SM toward memory.
type smRequest struct {
	addr  memdef.Addr // physical sector address
	write bool
	space memdef.Space
	sm    int16
}

// SM models one streaming multiprocessor: a set of warps scheduled
// greedy-then-oldest, a sectored L1 for loads (stores bypass the L1 and
// write through to L2, invalidating any local copy), and a bounded miss
// queue toward the crossbar.
type SM struct {
	id    int
	cfg   *Config
	warps []warpState
	l1    *cache.Cache
	// l1Waiters maps a sector being fetched to the warp indexes waiting on
	// it, in issue (FIFO) order.
	l1Waiters flatmap.MultiMap[int32]
	// missQueue holds sector requests awaiting crossbar acceptance.
	missQueue ringbuf.Ring[smRequest]
	// lastWarp implements greedy-then-oldest scheduling.
	lastWarp int
	// bubbles lists the bubble warps the last exact horizon evaluation of
	// this SM found (see System.smNextEvent); replayBubbles consumes it.
	// bubbleMarks is replayBubbles' checkpoint scratch.
	bubbles     []int32
	bubbleMarks []uint64

	// Instructions counts issued warp instructions (IPC numerator).
	Instructions uint64

	// probe, when non-nil, observes instruction issue and stall cycles.
	probe *telemetry.Collector
}

// issue classes for EvSMIssue events.
const (
	issueCompute = 0
	issueLoad    = 1
	issueStore   = 2
)

func (s *SM) issueProbe(now uint64, class uint8) {
	if s.probe != nil {
		s.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvSMIssue, Part: -1, Unit: int16(s.id), Class: class})
	}
}

// stallProbe records a cycle in which the SM had unfinished warps but
// issued nothing (memory stalls, scheduling bubbles, miss-queue throttle).
func (s *SM) stallProbe(now uint64) {
	if s.probe == nil || s.finished() {
		return
	}
	s.probe.Emit(telemetry.Event{Cycle: now, Kind: telemetry.EvSMStall, Part: -1, Unit: int16(s.id)})
}

func newSM(id int, cfg *Config) *SM {
	return &SM{
		id:          id,
		cfg:         cfg,
		bubbles:     make([]int32, 0, cfg.WarpsPerSM),
		bubbleMarks: make([]uint64, 0, cfg.WarpsPerSM),
		l1:          cache.New(cfg.l1Config()),
	}
}

// l1Config is the cache configuration of every SM's L1.
func (c *Config) l1Config() cache.Config {
	return cache.Config{
		Name:             "l1",
		SizeBytes:        c.L1Bytes,
		Ways:             c.L1Ways,
		MSHRs:            c.L1MSHRs,
		MaxMergesPerMSHR: 16,
	}
}

// launch installs the kernel's warps, reusing the warm warp array and
// waiter table from the previous kernel (reallocating them per kernel threw
// away grown capacity; every slot is overwritten below, so no state leaks
// across the boundary — the double-run determinism test pins this).
func (s *SM) launch(kernel int, wl Workload) {
	if cap(s.warps) >= s.cfg.WarpsPerSM {
		s.warps = s.warps[:s.cfg.WarpsPerSM]
	} else {
		s.warps = make([]warpState, s.cfg.WarpsPerSM)
	}
	for w := range s.warps {
		s.warps[w] = newWarpState(wl.NewWarp(kernel, s.id, w))
		s.advance(&s.warps[w])
	}
	s.lastWarp = 0
	// The miss path is drained between kernels, so the waiter table is
	// already empty; Reset also covers defensive reuse after an aborted run.
	s.l1Waiters.Reset()
}

// advance pulls the next instruction bundle from the warp's program.
func (s *SM) advance(w *warpState) {
	if w.done {
		return
	}
	compute, mem, done := w.prog.Next()
	if done {
		w.done = true
		w.haveMem = false
		return
	}
	w.computeLeft = compute
	w.pendingMem = mem
	w.haveMem = true
}

// finished reports whether every warp has completed.
func (s *SM) finished() bool {
	for i := range s.warps {
		if !s.warps[i].done {
			return false
		}
	}
	return true
}

// tick retries queued L1 misses against the crossbar, then issues at most
// one instruction.
func (s *SM) tick(now uint64, accept func(smRequest) bool) {
	s.drainMisses(accept)
	s.issueTick(now)
}

// drainMisses retries queued L1 misses against the crossbar: older
// requests have priority.
func (s *SM) drainMisses(accept func(smRequest) bool) {
	for s.missQueue.Len() > 0 {
		if !accept(*s.missQueue.Front()) {
			break
		}
		s.missQueue.PopFront()
	}
}

// issueTick issues at most one instruction from the SM's warps.
func (s *SM) issueTick(now uint64) {
	if s.missQueue.Len() > missQueueThrottle {
		s.stallProbe(now)
		return // throttle issue until the queue drains
	}

	n := len(s.warps)
	for i := 0; i < n; i++ {
		wi := (s.lastWarp + i) % n
		w := &s.warps[wi]
		// Loads are non-blocking up to the in-flight cap (scoreboarded
		// issue): a warp only stalls when its outstanding sectors reach
		// the cap, modeling the memory-level parallelism of real warps.
		if w.done || w.outstanding >= s.cfg.MaxWarpInflightSectors || w.readyAt > now {
			continue
		}
		s.lastWarp = wi
		if w.computeLeft > 0 {
			w.computeLeft--
			s.Instructions++
			s.issueProbe(now, issueCompute)
			return
		}
		if !w.haveMem {
			s.advance(w)
			if w.done || w.computeLeft > 0 || !w.haveMem {
				return
			}
		}
		s.issueMem(w, wi, now)
		return
	}
	s.stallProbe(now)
}

func (s *SM) issueMem(w *warpState, warpIdx int, now uint64) {
	mem := w.pendingMem
	w.haveMem = false
	if mem.Stall {
		// Scheduling bubble: the warp backs off briefly and re-asks the
		// program; not counted as an instruction.
		w.readyAt = now + bubbleBackoff
		s.advance(w)
		s.stallProbe(now)
		return
	}
	s.Instructions++
	if mem.Write {
		s.issueProbe(now, issueStore)
		// Stores are posted: write through toward L2, no warp stall.
		for _, a := range mem.Sectors {
			s.l1.CleanInvalidate(a)
			s.missQueue.Push(smRequest{addr: a, write: true, space: mem.Space, sm: int16(s.id)})
		}
		s.advance(w)
		return
	}
	s.issueProbe(now, issueLoad)
	for _, a := range mem.Sectors {
		switch s.l1.Read(a) {
		case cache.Hit:
			// Satisfied locally; small latency charged below.
		case cache.MissNew:
			w.outstanding++
			s.l1Waiters.Add(uint64(a), int32(warpIdx))
			s.missQueue.Push(smRequest{addr: a, space: mem.Space, sm: int16(s.id)})
		case cache.MissMerged:
			w.outstanding++
			s.l1Waiters.Add(uint64(a), int32(warpIdx))
		case cache.Blocked:
			// L1 MSHRs exhausted: bypass the L1's miss tracking and send
			// the request downstream anyway (the L2 merges duplicates);
			// the eventual fill still wakes this warp via l1Waiters.
			w.outstanding++
			s.l1Waiters.Add(uint64(a), int32(warpIdx))
			s.missQueue.Push(smRequest{addr: a, space: mem.Space, sm: int16(s.id)})
		}
	}
	// Non-blocking issue: the program advances immediately; the warp only
	// stalls via the in-flight cap checked by the scheduler.
	if w.outstanding == 0 {
		w.readyAt = now + s.cfg.L1Latency
	}
	s.advance(w)
}

// onFill delivers a sector response from L2, waking waiting warps.
func (s *SM) onFill(addr memdef.Addr, now uint64) {
	s.l1.Fill(addr)
	s.l1Waiters.Drain(uint64(addr), func(wi int32) { //shm:alloc-ok drain callback capturing two words, built once per fill (not per waiter)
		w := &s.warps[wi]
		w.outstanding--
		if w.outstanding == 0 {
			w.readyAt = now + 1
		}
	})
}

// warpNextEvent is the warp half of System.smNextEvent: the earliest
// issuable or waking warp, with bubble warps taken out. Their wake-ups do
// not count as events and are listed in s.bubbles instead, for
// replayBubbles to play through any cycles the horizon skips.
// Warps with a Stall pending are set aside in a first pass and asked
// StallsAgain only if no ordinary warp is issuable now and their wake-up
// precedes every ordinary one; a later wake-up is never eligible in a
// skipped window, whatever the answer.
func (s *SM) warpNextEvent(now uint64) uint64 {
	next := ^uint64(0)
	for i := range s.warps {
		w := &s.warps[i]
		if w.done || w.outstanding >= s.cfg.MaxWarpInflightSectors {
			continue
		}
		if w.stallPending() {
			s.bubbles = append(s.bubbles, int32(i)) //shm:alloc-ok bounded by WarpsPerSM; capacity is kept across evaluations
			continue
		}
		if w.readyAt > now {
			if w.readyAt < next {
				next = w.readyAt
			}
			continue
		}
		return now + 1
	}
	kept := s.bubbles[:0]
	for _, wi := range s.bubbles {
		w := &s.warps[wi]
		if w.readyAt >= next {
			continue
		}
		if w.stalls.StallsAgain() {
			kept = append(kept, wi) //shm:alloc-ok filters s.bubbles in place
			continue
		}
		if w.readyAt <= now {
			return now + 1
		}
		next = w.readyAt
	}
	s.bubbles = kept
	return next
}

// replayBubbles plays the scheduler through the skipped cycles (now,
// until), in which only bubble warps (s.bubbles) become eligible. At each
// cycle with an eligible warp, issueTick's greedy-then-oldest scan picks
// the first one from lastWarp and issueMem backs it off again — those two
// writes are all a bubble changes. The replay jumps from one such cycle to
// the next, and over whole periods once the schedule repeats: the state at
// a cycle c (lastWarp, and each bubble warp's readyAt relative to c)
// decides everything after it, so a state equal to an earlier one at cp
// shifted by T = c-cp repeats every T cycles. Checkpoints are taken each
// time every bubble warp has backed off since the last one.
func (s *SM) replayBubbles(now, until uint64) {
	n := len(s.warps)
	c := now + 1
	cp, cpLast := c, s.lastWarp
	s.markBubbles()
	for {
		at := ^uint64(0)
		for _, wi := range s.bubbles {
			if r := s.warps[wi].readyAt; r < at {
				at = r
			}
		}
		if at >= cp+bubbleBackoff && c > cp {
			if T := c - cp; s.lastWarp == cpLast && s.bubblesShiftedBy(T) {
				if m := (until - c) / T; m > 0 {
					for _, wi := range s.bubbles {
						s.warps[wi].readyAt += m * T
					}
					c += m * T
					at += m * T
				}
			}
			cp, cpLast = c, s.lastWarp
			s.markBubbles()
		}
		if at < c {
			at = c
		}
		if at >= until {
			return
		}
		pick, dist := 0, n
		for _, wi := range s.bubbles {
			if s.warps[wi].readyAt <= at {
				if d := (int(wi) - s.lastWarp + n) % n; d < dist {
					pick, dist = int(wi), d
				}
			}
		}
		s.warps[pick].readyAt = at + bubbleBackoff
		s.lastWarp = pick
		c = at + 1
	}
}

// markBubbles records every bubble warp's readyAt as a replay checkpoint.
func (s *SM) markBubbles() {
	s.bubbleMarks = s.bubbleMarks[:0]
	for _, wi := range s.bubbles {
		s.bubbleMarks = append(s.bubbleMarks, s.warps[wi].readyAt) //shm:alloc-ok bounded by WarpsPerSM; capacity is kept across replays
	}
}

// bubblesShiftedBy reports whether every bubble warp's readyAt is its
// checkpoint value plus t.
func (s *SM) bubblesShiftedBy(t uint64) bool {
	for j, wi := range s.bubbles {
		if s.warps[wi].readyAt != s.bubbleMarks[j]+t {
			return false
		}
	}
	return true
}
