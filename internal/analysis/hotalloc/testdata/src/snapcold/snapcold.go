// Package snapcold pins the implicit-cold rule for checkpoint code: a
// function taking a *snapshot.Codec runs once per snapshot, so its
// allocations are not reported even when a tick root reaches it; the same
// body without the parameter is.
package snapcold

import "shmgpu/internal/snapshot"

type S struct {
	buf []uint64
	c   *snapshot.Codec
}

//shm:tick-root
func (s *S) tick() {
	s.state(s.c)
	s.plain()
}

func (s *S) state(c *snapshot.Codec) {
	s.buf = make([]uint64, 4)
	for i := range s.buf {
		c.U64(&s.buf[i])
	}
}

func (s *S) plain() {
	s.buf = make([]uint64, 4) // want `hot-path allocation: make`
}
