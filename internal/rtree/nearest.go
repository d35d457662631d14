package rtree

import (
	"context"
	"math"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// Nearest streams data entries in order of increasing distance from p
// (branch-and-bound best-first search in the style of Hjaltason and
// Samet). Distance is the minimum Euclidean distance from p to the entry's
// rectangle, so entries containing p arrive first with distance 0.
// Returning false from fn stops the search; a k-nearest-neighbor query
// returns false after consuming k entries.
//
// The search runs on the zero-copy read path (traverse.go): the priority
// queue and the coordinate slab backing emitted rectangles are pooled, so
// a steady-state Nearest allocates nothing. The entry passed to fn aliases
// that pooled storage and is valid only during the callback; Clone its
// rectangle to retain it (NearestK copies it out).
//
// Entries at equal distance arrive in ascending Ref order, and an entry
// before any node at its distance is opened, so the stream — and the pages
// read to produce a prefix of it — is a function of the tree and p alone.
//
// Like Search, every node visited costs one buffer fetch, so the pool's
// DiskReads delta measures the query's I/O.
func (t *Tree) Nearest(p geom.Point, fn func(e node.Entry, dist float64) bool) error {
	return t.nearestView(nil, p, 0, fn)
}

// NearestK collects the k nearest entries to p, nearest first, with their
// distances: exactly the first k entries Nearest streams, ties and
// duplicates included, found by reading the same pages in the same order.
// Knowing k lets the traversal skip what cannot be among them: once k
// entries are queued, an entry or subtree strictly farther than the k-th
// nearest of them is neither copied nor queued (one tied with it is kept,
// so ties resolve as in Nearest). The returned entries are deep copies,
// their coordinates in one geom.Slab chunk allocated with the result (more
// than one past 4096 coordinates), and safe to retain.
func (t *Tree) NearestK(p geom.Point, k int) ([]node.Entry, []float64, error) {
	return t.nearestK(nil, p, k)
}

// nearestK is NearestK and NearestKContext; a nil ctx is never consulted.
func (t *Tree) nearestK(ctx context.Context, p geom.Point, k int) ([]node.Entry, []float64, error) {
	if k <= 0 {
		return nil, nil, nil
	}
	n := k
	if uint64(n) > t.count {
		n = int(t.count)
	}
	dims := t.dims
	entries := make([]node.Entry, 0, n)
	dists := make([]float64, 0, n)
	var slab geom.Slab // one chunk for all n rectangles, allocated by the first
	err := t.nearestView(ctx, p, k, func(e node.Entry, d float64) bool {
		c := slab.Alloc(2*dims, 2*dims*n)
		copy(c, e.Rect.Min)
		copy(c[dims:], e.Rect.Max)
		entries = append(entries, node.Entry{Rect: geom.Rect{Min: c[:dims:dims], Max: c[dims:]}, Ref: e.Ref})
		dists = append(dists, d)
		return len(entries) < k
	})
	return entries, dists, err
}

// minDist returns the squared-free Euclidean distance from a point to the
// nearest point of a rectangle (0 if the point is inside). node.View's
// MinDist kernel runs this exact float sequence over the wire words; the
// equivalence tests compare against this reference.
func minDist(p geom.Point, r geom.Rect) float64 {
	sum := 0.0
	for i := range p {
		var d float64
		switch {
		case p[i] < r.Min[i]:
			d = r.Min[i] - p[i]
		case p[i] > r.Max[i]:
			d = p[i] - r.Max[i]
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}
