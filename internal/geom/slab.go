package geom

// Slab is coordinate storage shared by many points and rectangles, for
// code that copies one result set's geometry out of memory it does not
// own (a pinned page, a reusable frame buffer): one allocation per chunk
// instead of two per rectangle. A chunk that has been handed out is never
// moved or reused, and every slice handed out has cap == len, so an
// append to one rectangle's corner reallocates instead of running into
// its neighbour. Chunks hold no pointers. The zero value is ready to
// use; a Slab is not safe for concurrent use.
type Slab struct {
	free  []float64 // the unused tail of the newest chunk
	chunk int       // size of the chunk Clone started last
}

// No chunk is larger than slabLast coordinates (32 KiB), and Clone's
// double from slabFirst up to that: a two-hit point query costs 256
// bytes, a thousand-hit window a handful of chunks.
const (
	slabFirst = 32
	slabLast  = 4096
)

// Alloc returns n zeroed coordinates. When the current chunk has fewer
// than n left, the rest of it is abandoned to the slices that hold it
// and a chunk of chunk coordinates (at least n, at most slabLast) is
// started, so a caller that knows how many more it can still need (a
// parser knows the bytes left in its message) bounds what is allocated
// by that.
func (s *Slab) Alloc(n, chunk int) []float64 {
	if n > len(s.free) {
		s.free = make([]float64, max(n, min(chunk, slabLast)))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Clone returns a deep copy of r whose corners live in the slab, for a
// caller that cannot say how many rectangles will follow.
func (s *Slab) Clone(r Rect) Rect {
	k := len(r.Min)
	if 2*k > len(s.free) {
		s.chunk = min(max(2*s.chunk, slabFirst), slabLast)
	}
	c := s.Alloc(2*k, s.chunk)
	copy(c, r.Min)
	copy(c[k:], r.Max)
	return Rect{Min: c[:k:k], Max: c[k:]}
}
