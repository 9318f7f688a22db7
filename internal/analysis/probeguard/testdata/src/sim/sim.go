// Package sim exercises the probeguard idioms: wrapped, early-return,
// unguarded, and else-branch Emit sites.
package sim

import "telemetry"

type unit struct {
	probe *telemetry.Collector
	done  bool
}

// wrapped is the canonical guarded idiom.
func (u *unit) wrapped(now uint64) {
	if u.probe != nil {
		u.probe.Emit(telemetry.Event{Cycle: now})
	}
}

// compound keeps the guard inside a larger condition.
func (u *unit) compound(now uint64) {
	if now > 0 && u.probe != nil {
		u.probe.Emit(telemetry.Event{Cycle: now})
	}
}

// earlyReturn is the second accepted idiom.
func (u *unit) earlyReturn(now uint64) {
	if u.probe == nil || u.done {
		return
	}
	u.probe.Emit(telemetry.Event{Cycle: now})
}

// unguarded constructs an Event and takes an interface call even when
// telemetry is off — the exact overhead the contract forbids.
func (u *unit) unguarded(now uint64) {
	u.probe.Emit(telemetry.Event{Cycle: now}) // want `probe Emit without a dominating nil check`
}

// wrongBranch guards the then-branch but emits from the else-branch.
func (u *unit) wrongBranch(now uint64) {
	if u.probe != nil {
		u.probe.Emit(telemetry.Event{Cycle: now})
	} else {
		u.probe.Emit(telemetry.Event{Cycle: now}) // want `probe Emit without a dominating nil check`
	}
}

// wrongGuard nil-checks a different probe than the one emitting.
func (u *unit) wrongGuard(other *unit, now uint64) {
	if u.probe != nil {
		other.probe.Emit(telemetry.Event{Cycle: now}) // want `probe Emit without a dominating nil check`
	}
}

// local guards a collector copied into a local variable.
func (u *unit) local(now uint64) {
	if tele := u.probe; tele != nil {
		tele.Emit(telemetry.Event{Cycle: now})
	}
}

// unguardedLocal emits through an unguarded local copy.
func (u *unit) unguardedLocal(now uint64) {
	tele := u.probe
	tele.Emit(telemetry.Event{Cycle: now}) // want `probe Emit without a dominating nil check`
}

// annotated opts out explicitly (e.g. a site proven non-nil by construction).
func (u *unit) annotated(now uint64) {
	u.probe.Emit(telemetry.Event{Cycle: now}) //shmlint:allow probeguard — probe set in constructor
}
