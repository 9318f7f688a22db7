// obs_sites exercises the same guard idioms for the live-observability
// probe: Observe on an obs.Probe needs the same dominating nil check Emit
// on a *telemetry.Collector does.
package sim

import "obs"

type system struct {
	obsProbe obs.Probe
	nextAt   uint64
}

// wrappedObserve is the canonical guarded idiom.
func (s *system) wrappedObserve(now uint64) {
	if s.obsProbe != nil {
		s.obsProbe.Observe(obs.Event{Cycle: now})
	}
}

// compoundObserve keeps the guard inside the interval comparison, the real
// hot-path shape.
func (s *system) compoundObserve(now uint64) {
	if s.obsProbe != nil && now >= s.nextAt {
		s.obsProbe.Observe(obs.Event{Cycle: now})
	}
}

// earlyReturnObserve is the second accepted idiom.
func (s *system) earlyReturnObserve(now uint64) {
	if s.obsProbe == nil {
		return
	}
	s.obsProbe.Observe(obs.Event{Cycle: now})
}

// unguardedObserve constructs an Event and takes an interface call even
// when the ops plane is detached — the overhead the contract forbids.
func (s *system) unguardedObserve(now uint64) {
	s.obsProbe.Observe(obs.Event{Cycle: now}) // want `probe Observe without a dominating nil check`
}

// wrongBranchObserve guards the then-branch but observes from the else.
func (s *system) wrongBranchObserve(now uint64) {
	if s.obsProbe != nil {
		s.obsProbe.Observe(obs.Event{Cycle: now})
	} else {
		s.obsProbe.Observe(obs.Event{Cycle: now}) // want `probe Observe without a dominating nil check`
	}
}

// annotatedObserve opts out explicitly.
func (s *system) annotatedObserve(now uint64) {
	s.obsProbe.Observe(obs.Event{Cycle: now}) //shmlint:allow probeguard — probe set in constructor
}
