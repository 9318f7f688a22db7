// Package snapshot stands in for the simulator's checkpoint codec: the
// flow analyzers treat any function taking a *Codec as implicitly cold.
package snapshot

// Codec codes one component's state in either direction.
type Codec struct{ buf []byte }

// U64 codes one value.
func (c *Codec) U64(v *uint64) { c.buf = append(c.buf, byte(*v)) }
