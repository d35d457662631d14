package geom

// Slab is coordinate storage shared by many points and rectangles, for a
// parser that carves one message's geometry out of memory it does not own
// (a reusable frame buffer): one allocation per chunk instead of two per
// rectangle. A chunk that has been handed out is never moved or reused,
// and every slice handed out has cap == len, so an append to one
// rectangle's corner reallocates instead of running into its neighbour.
// Chunks hold no pointers. The zero value is ready to use; a Slab is not
// safe for concurrent use.
type Slab struct {
	free []float64 // the unused tail of the newest chunk
}

// slabLast caps a chunk at 4096 coordinates (32 KiB).
const slabLast = 4096

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
