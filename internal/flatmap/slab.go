package flatmap

// Slab is index-stable storage for in-flight records. Elements live in
// fixed-size pages that are allocated as the slab grows and are never
// copied, so an element's index and its address stay valid for the slab's
// lifetime: a caller may hold either. Growth past the high-water mark
// allocates one page, never a doubled copy of everything before it.
//
// Each element has an int32 link word beside it in its page. While the
// element is free, the link threads it into the slab's free chain, so the
// free list takes no storage of its own, and Alloc reuses the most
// recently freed element first (last in, first out): once the slab has
// reached its high-water mark, take and release never allocate. While the
// element is live, its owner may use the link for a list of its own
// (MultiMap chains a key's values through it).
//
// The links sit in the page rather than in T so that Alloc and Free reach
// them without a method call through T, which a generic method cannot
// inline.
//
// The zero value is an empty slab ready for use. Not safe for concurrent
// use.
type Slab[T any] struct {
	pages []*slabPage[T]
	n     int32 // elements handed out so far: the high-water mark
	free  int32 // 1 + index of the free chain's head; 0 when empty
}

// slabPageLen is the number of elements in one page.
const (
	slabPageBits = 6
	slabPageLen  = 1 << slabPageBits
)

type slabPage[T any] struct {
	elems [slabPageLen]T
	links [slabPageLen]int32
}

// At returns element i, which Alloc must have returned. The pointer stays
// valid for the slab's lifetime.
func (s *Slab[T]) At(i int32) *T {
	return &s.pages[i>>slabPageBits].elems[i&(slabPageLen-1)]
}

// Link returns element i's link word. The owner of a live element may use
// it freely; Free overwrites it.
func (s *Slab[T]) Link(i int32) *int32 {
	return &s.pages[i>>slabPageBits].links[i&(slabPageLen-1)]
}

// Len returns the number of elements ever handed out (free or not): every
// index below it names an element.
func (s *Slab[T]) Len() int32 { return s.n }

// Alloc takes an element and returns its index: the most recently freed
// one, or else a fresh zero element. A reused element keeps what its last
// user left in it.
func (s *Slab[T]) Alloc() int32 {
	if s.free != 0 {
		i := s.free - 1
		s.free = *s.Link(i)
		return i
	}
	if int(s.n) == len(s.pages)*slabPageLen {
		s.grow()
	}
	s.n++
	return s.n - 1
}

// grow adds one fixed page per 64 elements past the high-water mark; pages
// are never copied.
func (s *Slab[T]) grow() {
	s.pages = append(s.pages, new(slabPage[T]))
}

// Free returns element i to the slab; the next Alloc reuses it.
func (s *Slab[T]) Free(i int32) {
	*s.Link(i) = s.free
	s.free = i + 1
}

// Reset frees every element at once: the pages are zeroed and kept, and
// Alloc hands out indices from 0 again.
func (s *Slab[T]) Reset() {
	for _, p := range s.pages {
		*p = slabPage[T]{}
	}
	s.n, s.free = 0, 0
}
