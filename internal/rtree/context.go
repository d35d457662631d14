// Context-aware query entry points. The serving layer (internal/server)
// enforces per-request deadlines by threading a context into query
// execution; these variants check the context once per node visit, so a
// cancelled or expired request stops within one page fetch instead of
// running its traversal to completion. They share the zero-copy traversal
// implementations in traverse.go with the context-free methods — the only
// difference is a non-nil ctx, consulted at exactly the points the old
// recursive variants consulted it (before every node read, and once per
// priority-queue pop for nearest-neighbor search).
package rtree

import (
	"context"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// SearchContext is Search with cooperative cancellation: ctx is consulted
// before every node read, and its error — context.Canceled or
// context.DeadlineExceeded — is returned as soon as it is observed.
// Matches already emitted stay emitted; the traversal simply stops.
func (t *Tree) SearchContext(ctx context.Context, q geom.Rect, fn func(e node.Entry) bool) error {
	_, err := t.searchView(ctx, q, false, fn, nil)
	return err
}

// CountContext is Count under a context.
func (t *Tree) CountContext(ctx context.Context, q geom.Rect) (int, error) {
	return t.searchView(ctx, q, false, nil, nil)
}

// NearestKContext is NearestK with cooperative cancellation, checked once
// per priority-queue pop — i.e. at least once per node read.
func (t *Tree) NearestKContext(ctx context.Context, p geom.Point, k int) ([]node.Entry, []float64, error) {
	return t.nearestK(ctx, p, k)
}
