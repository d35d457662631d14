package rtree

import (
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
	_, err := t.searchView(nil, q, false, fn)
	return err
}

// SearchWithin reports every data entry whose rectangle is fully
// contained in q (window containment, as opposed to Search's
// intersection semantics). The traversal still descends by intersection:
// a subtree whose MBR merely overlaps q can hold fully contained entries.
func (t *Tree) SearchWithin(q geom.Rect, fn func(e node.Entry) bool) error {
	return t.Search(q, func(e node.Entry) bool {
		if !q.Contains(e.Rect) {
			return true
		}
		return fn(e)
	})
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
	return t.searchView(nil, q, false, nil)
}

// All collects every data entry intersecting q. For large result sets
// prefer Search with a streaming callback.
func (t *Tree) All(q geom.Rect) ([]node.Entry, error) {
	var out []node.Entry
	err := t.Search(q, func(e node.Entry) bool {
		e.Rect = e.Rect.Clone()
		out = append(out, e)
		return true
	})
	return out, err
}
