package detectors

// bitVector is a predictor's table of 1-bit entries, packed 64 to a word
// so it occupies the Table IX storage (1024 bits: 128 B; 2048 bits: 256 B).
type bitVector []uint64

func newBitVector(n int) bitVector { return make(bitVector, (n+63)/64) }

func (b bitVector) get(i int) bool { return b[i>>6]>>(i&63)&1 != 0 }

func (b bitVector) set(i int, v bool) {
	if v {
		b[i>>6] |= 1 << (i & 63)
	} else {
		b[i>>6] &^= 1 << (i & 63)
	}
}
