package rtree

import (
	"context"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// Search reports every data entry whose rectangle intersects q, using the
// paper's procedure: starting at the root, retrieve all rectangles stored
// at a node that intersect Q; descend into the subtrees of retrieved
// internal rectangles; report retrieved leaf rectangles. Returning false
// from fn stops the search early.
//
// The traversal runs on the zero-copy read path (traverse.go): pages are
// decoded in place through node.View and all traversal state is pooled, so
// a steady-state Search allocates nothing. Node visits happen in exactly
// the order of the paper's recursive procedure (the tests keep a
// materializing reference implementation and compare fetch sequences), so
// the pool's DiskReads delta after a Search is still exactly the paper's
// "number of disk accesses to satisfy the query".
//
// The entry passed to fn aliases pooled traversal storage and is valid
// only during the callback; Clone its rectangle to retain it.
func (t *Tree) Search(q geom.Rect, fn func(e node.Entry) bool) error {
	_, err := t.searchView(nil, q, false, fn, nil)
	return err
}

// SearchPoint reports every data entry whose rectangle contains p: the
// paper's "point query". The query rectangle aliases p on both corners — no
// traversal writes its query — where geom.PointRect's two clones would
// escape through checkEntry's error path and allocate on every call.
func (t *Tree) SearchPoint(p geom.Point, fn func(e node.Entry) bool) error {
	return t.Search(geom.Rect{Min: p, Max: p}, fn)
}

// Count returns the number of data entries intersecting q. It is Search's
// traversal — same node visits in the same order — that copies nothing out
// and skips the tests whose answer is already known: when the rectangle a
// parent holds for a subtree lies inside q, every entry below it intersects
// q, so such a leaf adds the entry count in its page header and such an
// internal node passes all its children on, untested. That relies on a
// parent's rectangle containing its child's rectangles, which Check
// verifies; on a tree that breaks it, Count and Search can disagree.
func (t *Tree) Count(q geom.Rect) (int, error) {
	return t.searchView(nil, q, false, nil, nil)
}

// Collect returns every data entry intersecting q, in Search's order, as
// items that own their memory: the one read whose answer is kept. It is
// the window traversal with no callback (searchView): each leaf's matches
// are written once, by node.View.AppendMatches, into a slice of their exact
// size, and every corner has cap == len. A nil ctx is never consulted; a
// non-nil one is checked before every node read. No match returns nil.
func (t *Tree) Collect(ctx context.Context, q geom.Rect) ([]geom.Item, error) {
	var items []geom.Item
	if _, err := t.searchView(ctx, q, false, nil, &items); err != nil {
		return nil, err
	}
	return items, nil
}
