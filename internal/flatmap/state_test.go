package flatmap

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"shmgpu/internal/snapshot"
)

// history applies a seeded insert/delete sequence that grows the table
// through several rehashes and shrinks it again.
func history(seed int64) *Map[uint32] {
	rng := rand.New(rand.NewSource(seed))
	var m Map[uint32]
	for op := 0; op < 5000; op++ {
		k := uint64(rng.Intn(1024)) * 0x80
		if op < 2500 || rng.Intn(2) == 0 {
			*m.Put(k) = uint32(op)
		} else {
			m.Delete(k)
		}
	}
	return &m
}

func mapBytes(t *testing.T, m *Map[uint32]) []byte {
	t.Helper()
	b, err := snapshot.Save(func(c *snapshot.Codec) {
		MapState(c, m, func(c *snapshot.Codec, v *uint32) {
			x := int(*v)
			c.Int(&x)
			*v = uint32(x)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMapStateFollowsHistory pins MapState's bytes to the insert/delete
// history alone: two maps with the same history code identically, a
// restored copy codes the same bytes again, and the bytes hash to the
// value the earlier three-array table produced for this history (the
// single slot array kept probe order, slot order and the byte layout).
func TestMapStateFollowsHistory(t *testing.T) {
	a, b := mapBytes(t, history(1)), mapBytes(t, history(1))
	if !bytes.Equal(a, b) {
		t.Fatal("same history, different MapState bytes")
	}
	var restored Map[uint32]
	if err := snapshot.Load(a, func(c *snapshot.Codec) {
		MapState(c, &restored, func(c *snapshot.Codec, v *uint32) {
			x := 0
			c.Int(&x)
			*v = uint32(x)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mapBytes(t, &restored), a) {
		t.Fatal("restored map codes different bytes")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != historyDigest {
		t.Fatalf("MapState bytes hash to %s, want %s", got, historyDigest)
	}
}

// historyDigest is the SHA-256 of MapState(history(1)) under the earlier
// parallel-array table.
const historyDigest = "a3ce20bf193f9a17741afc005e6933f8fb783dc70222c33be608cbef5b991b90"
