// Package snapshot implements the deterministic, versioned binary
// serialization format used to checkpoint and fork complete simulator
// state. The format is a flat little-endian byte stream with no
// self-description: every reader must consume exactly the fields the
// writer produced, in the same order. Components guarantee that by coding
// their state through a Codec (codec.go), which runs one field list in
// either direction; the fork-vs-scratch byte-equality tests check it end
// to end.
//
// The file container (file.go) wraps a payload with a magic string, an
// explicit format version, the payload length, and an FNV-1a content
// checksum, and writes via atomic temp-file rename so a partially written
// snapshot is never loadable.
//
// Everything in this package is cold-path code: serialization happens at
// most once per fork, never per simulated cycle.
package snapshot

import "math"

// Encoder appends fixed-width little-endian values to a growing buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with a reasonable initial capacity.
func NewEncoder() *Encoder {
	return &Encoder{buf: make([]byte, 0, 1<<16)}
}

// Data returns the encoded payload.
func (e *Encoder) Data() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 writes a little-endian uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = append(e.buf, byte(v), byte(v>>8))
}

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 writes an int64 as its two's-complement uint64 image.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// I32 writes an int32 as its two's-complement uint32 image.
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// I16 writes an int16 as its two's-complement uint16 image.
func (e *Encoder) I16(v int16) { e.U16(uint16(v)) }

// Int writes an int as a 64-bit value.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool writes a bool as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 writes a float64 as its IEEE-754 bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Bytes writes a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.Int(len(b))
	e.buf = append(e.buf, b...)
}
