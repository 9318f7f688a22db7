// Package telemetry is a fixture mirror of the real probe contract:
// components hold a *Collector that is nil unless instrumentation is on.
package telemetry

// Event is one telemetry record.
type Event struct {
	Cycle uint64
	Kind  uint8
}

// Collector records events.
type Collector struct {
	n uint64
}

// Emit records one event.
func (c *Collector) Emit(e Event) {
	if c == nil {
		return
	}
	c.n++
}
