package snapshot

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(0xAB)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(^uint64(0))
	e.I64(-42)
	e.I32(-7)
	e.I16(-3)
	e.Int(-123456789)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Pi)
	e.String("hello, снимок")
	e.Bytes([]byte{1, 2, 3})
	e.Bytes(nil)

	d := NewDecoder(e.Data())
	if got := d.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != ^uint64(0) {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.I32(); got != -7 {
		t.Errorf("I32 = %d", got)
	}
	if got := d.I16(); got != -3 {
		t.Errorf("I16 = %d", got)
	}
	if got := d.Int(); got != -123456789 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Bool(); !got {
		t.Errorf("Bool#1 = %v", got)
	}
	if got := d.Bool(); got {
		t.Errorf("Bool#2 = %v", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.String(); got != "hello, снимок" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Bytes = %v", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Errorf("nil Bytes = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyTruncation(t *testing.T) {
	e := NewEncoder()
	e.U64(7)
	d := NewDecoder(e.Data())
	_ = d.U64()
	_ = d.U64() // past the end
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	first := d.Err()
	_ = d.U32()
	_ = d.String()
	if d.Err() != first {
		t.Fatal("error is not sticky")
	}
	if got := d.U64(); got != 0 {
		t.Fatalf("poisoned read = %d, want 0", got)
	}
}

func TestDecoderFailf(t *testing.T) {
	d := NewDecoder(nil)
	d.Failf("bad slot %d", 9)
	if d.Err() == nil || d.Err().Error() != "snapshot: bad slot 9" {
		t.Fatalf("Failf err = %v", d.Err())
	}
	d.Failf("second")
	if d.Err().Error() != "snapshot: bad slot 9" {
		t.Fatal("Failf overwrote the first error")
	}
}

func TestDecoderLenRejectsImplausible(t *testing.T) {
	e := NewEncoder()
	e.Int(1 << 40)
	d := NewDecoder(e.Data())
	if got := d.Len(); got != 0 || d.Err() == nil {
		t.Fatalf("Len = %d, err = %v; want 0 and an error", got, d.Err())
	}
	e2 := NewEncoder()
	e2.Int(-1)
	d2 := NewDecoder(e2.Data())
	if got := d2.Len(); got != 0 || d2.Err() == nil {
		t.Fatalf("negative Len = %d, err = %v", got, d2.Err())
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	payload := []byte("simulator state goes here")
	got, err := Unpack(Pack(payload))
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
	// Empty payload is legal.
	if _, err := Unpack(Pack(nil)); err != nil {
		t.Fatalf("empty payload: %v", err)
	}
}

func TestUnpackRejectsDamage(t *testing.T) {
	packed := Pack([]byte("payload"))

	// Truncated: every prefix must fail with ErrCorrupt, never load.
	for n := 0; n < len(packed); n++ {
		if _, err := Unpack(packed[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}

	// Flipped payload byte: checksum failure.
	flipped := append([]byte(nil), packed...)
	flipped[len(flipped)-1] ^= 0xFF
	if _, err := Unpack(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt payload: err = %v, want ErrCorrupt", err)
	}

	// Bad magic.
	badMagic := append([]byte(nil), packed...)
	badMagic[0] = 'X'
	if _, err := Unpack(badMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}
}

func TestUnpackRejectsVersionSkew(t *testing.T) {
	packed := Pack([]byte("payload"))
	skewed := append([]byte(nil), packed...)
	binary.LittleEndian.PutUint32(skewed[8:12], FormatVersion+1)
	_, err := Unpack(skewed)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: err = %v, want ErrVersion", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("version skew must not also read as corruption")
	}
}

// TestUnpackRejectsVersion3 pins the version 3 → 4 bump: a file written
// before caches packed their tags and the MEE indexed its pending table by
// token slot must be refused, not misparsed.
func TestUnpackRejectsVersion3(t *testing.T) {
	if FormatVersion != 4 {
		t.Fatalf("FormatVersion = %d; update this test with the next bump", FormatVersion)
	}
	old := Pack([]byte("payload"))
	binary.LittleEndian.PutUint32(old[8:12], 3)
	if _, err := Unpack(old); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 3 file: err = %v, want ErrVersion", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	payload := []byte("on-disk state")
	if err := WriteFile(path, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
	// No temp files left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want just the snapshot", len(ents))
	}
}

// TestMidWriteKillNeverLoadable simulates a process killed mid-write (the
// watchdog-cancel scenario): any prefix of the container present at the
// target path must fail ReadFile cleanly rather than restore partial
// state.
func TestMidWriteKillNeverLoadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	packed := Pack([]byte("state that must never load partially"))
	for n := 0; n < len(packed); n++ {
		if err := os.WriteFile(path, packed[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Fatalf("prefix of %d bytes loaded successfully", n)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
