package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// watchdog polls registered runs' heartbeats on its own goroutine and
// declares a run stalled when its cycle stops advancing for the deadline.
// A stalled run gets a diagnostic bundle (goroutine stacks, span tree,
// progress and metrics snapshots) and — when cancellation is armed — its
// Cancel flag set and abandon channel closed, so the sweep completes with
// the cell reported stalled instead of hanging.
type watchdog struct {
	p        *Plane
	deadline time.Duration
	poll     time.Duration
	dir      string
	cancel   bool

	mu      sync.Mutex
	watched map[*Run]*watchState
	stalled []string

	stop chan struct{}
	done chan struct{}
}

type watchState struct {
	lastCycle  uint64
	lastChange time.Time
	fired      bool
}

func newWatchdog(p *Plane, opts Options) *watchdog {
	poll := opts.WatchdogPoll
	if poll <= 0 {
		poll = opts.WatchdogDeadline / 4
	}
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	w := &watchdog{
		p:        p,
		deadline: opts.WatchdogDeadline,
		poll:     poll,
		dir:      opts.WatchdogDir,
		cancel:   opts.WatchdogCancel,
		watched:  make(map[*Run]*watchState),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.loop()
	return w
}

func (w *watchdog) watch(r *Run) {
	if w == nil || r == nil {
		return
	}
	w.mu.Lock()
	w.watched[r] = &watchState{lastCycle: r.hb.Load(), lastChange: time.Now()}
	w.mu.Unlock()
}

func (w *watchdog) unwatch(r *Run) {
	if w == nil || r == nil {
		return
	}
	w.mu.Lock()
	delete(w.watched, r)
	w.mu.Unlock()
}

func (w *watchdog) stalledRuns() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.stalled...)
}

func (w *watchdog) close() {
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
}

func (w *watchdog) loop() {
	defer close(w.done)
	t := time.NewTicker(w.poll)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.scan(time.Now())
		case <-w.stop:
			return
		}
	}
}

// scan advances every watched run's state and fires on the stalled ones.
// Firing happens outside the lock: the bundle write reads the tracer and
// progress aggregator, which take their own locks.
func (w *watchdog) scan(now time.Time) {
	var fire []*Run
	w.mu.Lock()
	for r, st := range w.watched {
		cur := r.hb.Load()
		if cur != st.lastCycle {
			st.lastCycle = cur
			st.lastChange = now
			continue
		}
		if !st.fired && now.Sub(st.lastChange) >= w.deadline {
			st.fired = true
			fire = append(fire, r)
		}
	}
	w.mu.Unlock()
	for _, r := range fire {
		w.fire(r)
	}
}

// stallInfo is the bundle's progress.json payload.
type stallInfo struct {
	Run       string  `json:"run"`
	LastCycle uint64  `json:"last_cycle"`
	StuckSec  float64 `json:"stuck_sec"`
	Cancelled bool    `json:"cancelled"`
	Progress  Record  `json:"progress"`
}

func (w *watchdog) fire(r *Run) {
	w.mu.Lock()
	w.stalled = append(w.stalled, r.name)
	w.mu.Unlock()
	w.p.prog.markStalled()
	suffix := ""
	if w.cancel {
		suffix = ", cancelling"
	}
	w.p.opts.Log.Errorf("watchdog: run %s made no cycle progress for %v (last cycle %d)%s",
		r.name, w.deadline, r.hb.Load(), suffix)

	if w.dir != "" {
		w.writeBundle(r)
	}
	if w.cancel {
		r.cancel.Cancel()
		r.abandonNow()
	}
	r.span.Annotate("stalled", "true")
}

// writeBundle dumps the diagnostic bundle for one stalled run into
// <dir>/stall-<run>/. Bundle failures are logged, never fatal — the
// watchdog must not take down the sweep it is guarding.
func (w *watchdog) writeBundle(r *Run) {
	dir := filepath.Join(w.dir, "stall-"+sanitizeName(r.name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		w.p.opts.Log.Errorf("watchdog: %v", err)
		return
	}
	logErr := func(err error) {
		if err != nil {
			w.p.opts.Log.Errorf("watchdog: writing bundle: %v", err)
		}
	}

	// All goroutine stacks: the stalled cell's tick loop is in here, which
	// is usually enough to see where it wedged.
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	logErr(os.WriteFile(filepath.Join(dir, "goroutines.txt"), buf[:n], 0o644))

	// The span tree, open spans included: which cell, which phase, since
	// which cycle.
	if tree, err := json.MarshalIndent(w.p.tracer.Tree(), "", "  "); err == nil {
		logErr(os.WriteFile(filepath.Join(dir, "spans.json"), append(tree, '\n'), 0o644))
	} else {
		logErr(err)
	}

	info := stallInfo{
		Run:       r.name,
		LastCycle: r.hb.Load(),
		StuckSec:  w.deadline.Seconds(),
		Cancelled: w.cancel,
		Progress:  w.p.prog.record(false),
	}
	if data, err := json.MarshalIndent(info, "", "  "); err == nil {
		logErr(os.WriteFile(filepath.Join(dir, "progress.json"), append(data, '\n'), 0o644))
	} else {
		logErr(err)
	}

	// The last committed telemetry sample, when a runner installed one.
	if fn := w.p.metrics(); fn != nil {
		f, err := os.Create(filepath.Join(dir, "metrics.prom"))
		if err != nil {
			logErr(err)
			return
		}
		logErr(fn(f))
		logErr(f.Close())
	}
}

func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}
