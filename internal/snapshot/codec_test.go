package snapshot

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// record exercises every Codec primitive and helper.
type record struct {
	U8    uint8
	I16   int16
	I32   int32
	U64   uint64
	N     int
	B     bool
	F     float64
	S     string
	List  []uint64
	Table map[uint64]bool
}

func (r *record) state(c *Codec) {
	c.U8(&r.U8)
	c.I16(&r.I16)
	c.I32(&r.I32)
	c.U64(&r.U64)
	c.Int(&r.N)
	c.Bool(&r.B)
	c.F64(&r.F)
	c.String(&r.S)
	Slice(c, &r.List, (*Codec).U64)
	SortedMap(c, &r.Table, (*Codec).U64, (*Codec).Bool)
}

// TestCodecRoundTrip pins the codec to the Encoder layout, so a state
// method writes the bytes a hand-written encoder would, and checks that
// loading those bytes reproduces every field.
func TestCodecRoundTrip(t *testing.T) {
	want := record{U8: 7, I16: -3, I32: -70000, U64: 1 << 60, N: -42, B: true, F: math.Pi, S: "snap",
		List: []uint64{3, 1, 2}, Table: map[uint64]bool{9: true, 2: false, 5: true}}
	payload, err := Save(want.state)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEncoder()
	e.U8(7)
	e.I16(-3)
	e.I32(-70000)
	e.U64(1 << 60)
	e.Int(-42)
	e.Bool(true)
	e.F64(math.Pi)
	e.String("snap")
	e.Int(3)
	for _, v := range []uint64{3, 1, 2} {
		e.U64(v)
	}
	e.Int(3)
	for _, k := range []uint64{2, 5, 9} { // ascending keys
		e.U64(k)
		e.Bool(want.Table[k])
	}
	if !bytes.Equal(payload, e.Data()) {
		t.Fatalf("codec wrote %x, the encoder layout is %x", payload, e.Data())
	}
	var got record
	if err := Load(payload, got.state); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if err := Load(payload[:len(payload)-1], got.state); err == nil {
		t.Error("truncated payload loaded")
	}
}

// TestCodecCountAndFailf: Count rejects a stored length the target does
// not have, the first failure sticks, and a save-side Failf refuses the
// capture.
func TestCodecCountAndFailf(t *testing.T) {
	payload, _ := Save(func(c *Codec) { c.Count(4, "lanes") })
	err := Load(payload, func(c *Codec) {
		if c.Count(5, "lanes") {
			t.Error("Count accepted 4 lanes for a 5-lane target")
		}
		c.Failf("second failure")
	})
	if err == nil || !strings.Contains(err.Error(), "lanes") {
		t.Errorf("load error = %v, want the lane count mismatch", err)
	}
	if _, err := Save(func(c *Codec) { c.Failf("nothing to capture") }); err == nil {
		t.Error("Save ignored a save-side failure")
	}
}
