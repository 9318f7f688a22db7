package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"shmgpu/internal/telemetry"
)

// Options configures a Plane. The zero value of every field is a sensible
// off/default state, so tools only set what their flags enable.
type Options struct {
	// Tool names the producing command in progress records and /healthz.
	Tool string
	// TotalCells, when known, enables done/total and ETA reporting.
	TotalCells int
	// ProgressOut, when non-nil, receives one JSON progress Record every
	// ProgressEvery (default 2s) plus a final record at Close.
	ProgressOut   io.Writer
	ProgressEvery time.Duration
	// SpanLog, when non-nil, receives the streaming span log (one JSON
	// line per span begin/end).
	SpanLog io.Writer
	// OpsListen, when non-empty, starts the embedded HTTP ops server on
	// this address (host:port; ":0" picks a free port — see Plane.OpsAddr).
	OpsListen string
	// WatchdogDeadline, when positive, arms the stall watchdog: a run
	// whose heartbeat cycle does not advance for this long is declared
	// stalled and a diagnostic bundle is written under WatchdogDir.
	WatchdogDeadline time.Duration
	// WatchdogPoll is the watchdog's polling period (default deadline/4,
	// clamped to at least 10ms).
	WatchdogPoll time.Duration
	// WatchdogDir receives one stall-<run>/ bundle directory per stalled
	// run (goroutine stacks, span tree, progress and metrics snapshots).
	WatchdogDir string
	// WatchdogCancel makes the watchdog also cancel the stalled run (via
	// its Cancel flag and abandon channel) so the sweep completes with the
	// cell reported stalled instead of hanging.
	WatchdogCancel bool
	// CancelGrace is how long RunSim waits for a cancelled run to notice
	// the flag before abandoning its goroutine (default 250ms).
	CancelGrace time.Duration
	// Log receives the plane's own status lines (watchdog firings, ops
	// server address).
	Log *Logger
}

// Plane is one campaign's live observability plane: the span tracer, the
// progress aggregator and reporter, the stall watchdog, and the ops HTTP
// server. A nil *Plane is a valid disabled plane — every method no-ops and
// BeginRun returns a nil *Run — so tools hold a single pointer regardless
// of which flags are set.
type Plane struct {
	opts   Options
	tracer *Tracer
	sweep  Span
	prog   *progress
	wd     *watchdog
	ops    *opsServer

	metricsMu sync.Mutex
	metricsFn func(io.Writer) error

	reporterStop chan struct{}
	reporterDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// Start builds and starts a plane. The returned error is non-nil only when
// the ops listener cannot bind; every other pillar cannot fail to start.
func Start(opts Options) (*Plane, error) {
	if opts.ProgressEvery <= 0 {
		opts.ProgressEvery = 2 * time.Second
	}
	if opts.CancelGrace <= 0 {
		opts.CancelGrace = 250 * time.Millisecond
	}
	p := &Plane{opts: opts}
	p.tracer = NewTracer(opts.SpanLog)
	label := opts.Tool
	if label == "" {
		label = "sweep"
	}
	p.sweep = p.tracer.Begin(Span{}, "sweep", label)
	p.prog = newProgress(opts.Tool, opts.TotalCells)
	if opts.WatchdogDeadline > 0 {
		p.wd = newWatchdog(p, opts)
	}
	if opts.OpsListen != "" {
		ops, err := startOps(p, opts.OpsListen)
		if err != nil {
			p.wd.close()
			return nil, err
		}
		p.ops = ops
		opts.Log.Infof("ops endpoint listening on http://%s", ops.addr())
	}
	if opts.ProgressOut != nil {
		p.reporterStop = make(chan struct{})
		p.reporterDone = make(chan struct{})
		go p.reportLoop()
	}
	return p, nil
}

// reportLoop emits periodic progress records until Close.
func (p *Plane) reportLoop() {
	defer close(p.reporterDone)
	t := time.NewTicker(p.opts.ProgressEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			writeRecord(p.opts.ProgressOut, p.prog.record(false))
		case <-p.reporterStop:
			return
		}
	}
}

// Tracer returns the plane's span tracer (nil for a nil plane).
func (p *Plane) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// OpsAddr returns the ops server's bound address ("" when not listening).
func (p *Plane) OpsAddr() string {
	if p == nil || p.ops == nil {
		return ""
	}
	return p.ops.addr()
}

// CanCancel reports whether the watchdog is armed to cancel stalled runs.
func (p *Plane) CanCancel() bool {
	return p != nil && p.wd != nil && p.opts.WatchdogCancel
}

// CancelGrace returns the configured grace period for cancelled runs.
func (p *Plane) CancelGrace() time.Duration {
	if p == nil {
		return 0
	}
	return p.opts.CancelGrace
}

// SetMetrics installs the /metrics renderer: a function writing the latest
// completed run's Prometheus snapshot (the exact bytes the batch exporter
// commits, so a final scrape byte-matches the committed dump). Runners call
// it after every completed cell; before the first cell /metrics serves a
// minimal liveness payload.
func (p *Plane) SetMetrics(fn func(io.Writer) error) {
	if p == nil {
		return
	}
	p.metricsMu.Lock()
	p.metricsFn = fn
	p.metricsMu.Unlock()
}

func (p *Plane) metrics() func(io.Writer) error {
	if p == nil {
		return nil
	}
	p.metricsMu.Lock()
	defer p.metricsMu.Unlock()
	return p.metricsFn
}

// Progress returns the current progress record (zero Record for a nil
// plane). Shared by the reporter, the /progress endpoint and tests; the
// throughput window resets at each call, whoever polls.
func (p *Plane) Progress() Record {
	if p == nil {
		return Record{}
	}
	return p.prog.record(false)
}

// Stalled returns the names of runs the watchdog declared stalled.
func (p *Plane) Stalled() []string {
	if p == nil || p.wd == nil {
		return nil
	}
	return p.wd.stalledRuns()
}

// WriteChromeTrace exports the span tree as Chrome trace-event JSON.
func (p *Plane) WriteChromeTrace(w io.Writer, m telemetry.Manifest) error {
	if p == nil {
		return nil
	}
	return p.tracer.WriteChromeTrace(w, m)
}

// Close ends the sweep span, emits the final progress record, and stops
// the watchdog, reporter and ops server. Idempotent; returns the span
// log's first write error, if any.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	p.closeOnce.Do(func() {
		p.sweep.End()
		if p.reporterStop != nil {
			close(p.reporterStop)
			<-p.reporterDone
		}
		writeRecord(p.opts.ProgressOut, p.prog.record(true))
		p.wd.close()
		if p.ops != nil {
			p.ops.close()
		}
		p.closeErr = p.tracer.Err()
	})
	return p.closeErr
}

// Run is one simulation cell's observability handle. It implements Probe —
// the simulator's emit sites feed it heartbeats and phase transitions — and
// carries the cancel flag and abandon channel the watchdog uses to kill a
// stalled cell. All methods are nil-receiver safe.
type Run struct {
	p    *Plane
	name string
	span Span
	// phase is the currently-open phase span. Phases never overlap within
	// one run, but on the watchdog's abandon path Done runs on the sweep
	// goroutine while the abandoned simulation goroutine may still be
	// emitting phase events — hence the mutex. It is off the steady-state
	// path: EvProgress never touches phase.
	phaseMu sync.Mutex
	phase   Span

	hb      Heartbeat
	cancel  Cancel
	abandon chan struct{}
	abOnce  sync.Once

	startWall time.Time
	doneOnce  sync.Once
}

// BeginRun opens a cell span and registers the run with the progress
// aggregator and watchdog. Call Done when the cell finishes.
func (p *Plane) BeginRun(name string) *Run {
	if p == nil {
		return nil
	}
	r := &Run{
		p:         p,
		name:      name,
		abandon:   make(chan struct{}),
		startWall: time.Now(),
	}
	r.span = p.tracer.BeginLane(p.sweep, "cell", name)
	p.prog.register(r)
	p.wd.watch(r)
	return r
}

// Name returns the run's cell name.
func (r *Run) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Span returns the run's cell span.
func (r *Run) Span() Span {
	if r == nil {
		return Span{}
	}
	return r.span
}

// Observe implements Probe. EvProgress is the steady-state path: one
// atomic store, no allocations. Phase events open and close child spans
// (kernel-boundary frequency, allocation there is fine).
func (r *Run) Observe(e Event) {
	if r == nil {
		return
	}
	switch e.Kind {
	case EvProgress:
		r.hb.Store(e.Cycle)
	case EvPhaseBegin:
		name := e.Phase.String()
		if e.Phase != PhaseSetup {
			name = fmt.Sprintf("%s-%d", name, e.Index)
		}
		ph := r.p.tracer.BeginCycle(r.span, "phase", name, e.Cycle)
		r.phaseMu.Lock()
		r.phase = ph
		r.phaseMu.Unlock()
	case EvPhaseEnd:
		r.phaseMu.Lock()
		ph := r.phase
		r.phase = Span{}
		r.phaseMu.Unlock()
		ph.EndCycle(e.Cycle)
	}
}

// CancelFlag returns the run's cooperative cancellation flag (to hand to
// gpu.System.SetCancel).
func (r *Run) CancelFlag() *Cancel {
	if r == nil {
		return nil
	}
	return &r.cancel
}

// Heartbeat returns the run's heartbeat cell (for producers that publish
// progress without going through Observe, e.g. the fuzz campaign's oracle
// stage counter).
func (r *Run) Heartbeat() *Heartbeat {
	if r == nil {
		return nil
	}
	return &r.hb
}

// Abandoned returns a channel closed when the watchdog gives up on the
// run. For a nil run it returns nil, which blocks forever in a select —
// exactly the disabled behaviour.
func (r *Run) Abandoned() <-chan struct{} {
	if r == nil {
		return nil
	}
	return r.abandon
}

func (r *Run) abandonNow() {
	if r == nil {
		return
	}
	r.abOnce.Do(func() { close(r.abandon) })
}

// Done closes the run: ends any open phase span and the cell span (stamped
// with the final cycle and completion state), updates the progress EWMA,
// and unregisters from the watchdog. Idempotent.
func (r *Run) Done(cycles uint64, completed bool) {
	if r == nil {
		return
	}
	r.doneOnce.Do(func() {
		r.phaseMu.Lock()
		ph := r.phase
		r.phase = Span{}
		r.phaseMu.Unlock()
		ph.EndCycle(cycles)
		r.span.Annotate("cycles", strconv.FormatUint(cycles, 10))
		r.span.Annotate("completed", strconv.FormatBool(completed))
		r.span.EndCycle(cycles)
		r.p.wd.unwatch(r)
		r.p.prog.finish(r, cycles, time.Since(r.startWall))
	})
}
