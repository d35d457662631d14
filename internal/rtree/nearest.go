package rtree

import (
	"context"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// NearestK collects the k nearest entries to p, nearest first, with their
// distances (branch-and-bound best-first search in the style of Hjaltason
// and Samet). Distance is the minimum Euclidean distance from p to the
// entry's rectangle, so entries containing p come first with distance 0.
//
// The result is exactly the first k entries of the unbounded best-first
// stream (nearestView with k ≤ 0), ties and duplicates included, found by
// reading the same pages in the same order: entries at equal distance come
// in ascending Ref order, and an entry before any node at its distance is
// opened, so the result — and the pages read to produce it — is a function
// of the tree, p and k alone. Knowing k lets the traversal skip what cannot
// be among them: once k entries are queued, an entry or subtree strictly
// farther than the k-th nearest of them is neither copied nor queued (one
// tied with it is kept, so ties resolve as in the stream).
//
// The traversal runs on the zero-copy read path (traverse.go), its
// priority queue and coordinate slab pooled. The returned entries are deep
// copies, their coordinates in one geom.Slab chunk allocated with the
// result (more than one past 4096 coordinates), and safe to retain. Like
// Search, every node visited costs one buffer fetch, so the pool's
// DiskReads delta measures the query's I/O.
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
