package snapshot

import (
	"fmt"
	"math"
)

// Decoder reads the fixed-width values written by Encoder, in order, with a
// sticky error: after the first failure every further read returns the zero
// value, so callers can decode a whole section and check Err once.
// Semantic validation (config identity, slot bounds) poisons the decoder
// the same way, through Failf or Codec.Failf.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over payload.
func NewDecoder(payload []byte) *Decoder {
	return &Decoder{buf: payload}
}

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Failf poisons the decoder with a formatted error unless one is already
// set. Loaders use it for semantic failures (bad slot index, negative
// length) so one error path covers both truncation and corruption.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("snapshot: truncated payload reading %s at offset %d", what, d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2, "u16")
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// I32 reads an int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// I16 reads an int16.
func (d *Decoder) I16() int16 { return int16(d.U16()) }

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Int()
	if n < 0 {
		d.Failf("negative string length %d at offset %d", n, d.off)
		return ""
	}
	b := d.take(n, "string")
	return string(b)
}

// Bytes reads a length-prefixed byte slice (a copy of the payload bytes).
func (d *Decoder) Bytes() []byte {
	n := d.Int()
	if n < 0 {
		d.Failf("negative bytes length %d at offset %d", n, d.off)
		return nil
	}
	b := d.take(n, "bytes")
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Len reads a length written by Encoder.Int and rejects negative or
// absurdly large values (larger than the remaining payload could possibly
// hold at one byte per element), so corrupt lengths fail cleanly instead
// of driving huge allocations.
func (d *Decoder) Len() int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > len(d.buf)-d.off+1 {
		d.Failf("implausible length %d at offset %d (%d bytes remain)", n, d.off, len(d.buf)-d.off)
		return 0
	}
	return n
}
