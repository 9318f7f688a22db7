package snapshot

import (
	"cmp"
	"fmt"
	"slices"
)

// Codec runs a component's one state method in either direction. Saving,
// it writes each field through an Encoder; loading, it reads the same
// fields back through a Decoder into the same variables. Every primitive
// takes a pointer, so a state method lists its fields once and the save
// and load layouts cannot drift apart.
//
// Only direction-specific work branches on Loading: canonical ordering
// before a write (sorted map keys), rebuilding derived state after a read,
// and the load-side checks that reject a payload no saved run could have
// produced. Failures are sticky, as in Decoder: after the first, every
// read yields zero values, so a state method checks and returns early
// only where a bad value would be used to index or allocate.
type Codec struct {
	enc *Encoder
	dec *Decoder
	err error // a save-side refusal
}

// Save runs state against a fresh encoder and returns the payload, or the
// first failure state reported.
func Save(state func(*Codec)) ([]byte, error) {
	c := &Codec{enc: NewEncoder()}
	state(c)
	if c.err != nil {
		return nil, c.err
	}
	return c.enc.Data(), nil
}

// Load runs state over payload and returns the first decoding or
// validation failure.
func Load(payload []byte, state func(*Codec)) error {
	c := &Codec{dec: NewDecoder(payload)}
	state(c)
	return c.Err()
}

// Loading reports whether the codec restores state (false: it saves).
func (c *Codec) Loading() bool { return c.dec != nil }

// Err returns the first failure, or nil.
func (c *Codec) Err() error {
	if c.dec != nil {
		return c.dec.err
	}
	return c.err
}

// Failf records a failure unless one is already recorded. Loaders use it
// to reject a payload; savers use it to refuse a capture.
func (c *Codec) Failf(format string, args ...any) {
	if c.Err() != nil {
		return
	}
	if c.dec != nil {
		c.dec.err = fmt.Errorf(format, args...)
	} else {
		c.err = fmt.Errorf(format, args...)
	}
}

// U8 codes one byte.
func (c *Codec) U8(v *uint8) {
	if c.dec != nil {
		*v = c.dec.U8()
	} else {
		c.enc.U8(*v)
	}
}

// I16 codes an int16.
func (c *Codec) I16(v *int16) {
	if c.dec != nil {
		*v = c.dec.I16()
	} else {
		c.enc.I16(*v)
	}
}

// I32 codes an int32.
func (c *Codec) I32(v *int32) {
	if c.dec != nil {
		*v = c.dec.I32()
	} else {
		c.enc.I32(*v)
	}
}

// U64 codes a uint64.
func (c *Codec) U64(v *uint64) {
	if c.dec != nil {
		*v = c.dec.U64()
	} else {
		c.enc.U64(*v)
	}
}

// Int codes an int as a 64-bit value.
func (c *Codec) Int(v *int) {
	if c.dec != nil {
		*v = c.dec.Int()
	} else {
		c.enc.Int(*v)
	}
}

// Bool codes a bool as one byte.
func (c *Codec) Bool(v *bool) {
	if c.dec != nil {
		*v = c.dec.Bool()
	} else {
		c.enc.Bool(*v)
	}
}

// F64 codes a float64 bit pattern.
func (c *Codec) F64(v *float64) {
	if c.dec != nil {
		*v = c.dec.F64()
	} else {
		c.enc.F64(*v)
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(v *string) {
	if c.dec != nil {
		*v = c.dec.String()
	} else {
		c.enc.String(*v)
	}
}

// Len codes the length of a variable-size collection. Loading applies
// Decoder.Len's plausibility bound, so a corrupt length fails instead of
// driving a huge allocation.
func (c *Codec) Len(n *int) {
	if c.dec != nil {
		*n = c.dec.Len()
	} else {
		c.enc.Int(*n)
	}
}

// Count codes a length the target already has from its configuration.
// Loading fails unless the stored value equals n. It reports whether the
// codec is still healthy, so callers can stop before indexing.
func (c *Codec) Count(n int, what string) bool {
	got := n
	c.Int(&got)
	if got != n {
		c.Failf("%s: snapshot has %d, this target has %d", what, got, n)
	}
	return c.Err() == nil
}

// Slice codes a length-prefixed slice, el coding each element. Loading
// replaces *s with a fresh slice of the stored length.
func Slice[T any](c *Codec, s *[]T, el func(*Codec, *T)) {
	n := len(*s)
	c.Len(&n)
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		*s = make([]T, n)
	}
	for i := range *s {
		el(c, &(*s)[i])
	}
}

// SortedMap codes a map in ascending key order, so the saved bytes do not
// depend on Go's map iteration order; key and el code one key and one
// value. Loading replaces *m.
func SortedMap[K cmp.Ordered, V any](c *Codec, m *map[K]V, key func(*Codec, *K), el func(*Codec, *V)) {
	keys := make([]K, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := len(keys)
	c.Len(&n)
	if c.Loading() {
		*m = make(map[K]V, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var k K
		var v V
		if !c.Loading() {
			k = keys[i]
			v = (*m)[k]
		}
		key(c, &k)
		el(c, &v)
		if c.Loading() {
			(*m)[k] = v
		}
	}
}
