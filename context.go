package strtree

// Context-aware query entry points, the hooks the serving subsystem
// (internal/server, cmd/strserve) uses to enforce per-request deadlines.
// Each variant threads ctx down into the tree traversal, which checks it
// once per node visit: a cancelled or expired context stops the query
// within one page fetch and surfaces ctx's error. The context-free
// methods remain the canonical paper-reproduction paths.

import (
	"context"
	"time"

	"strtree/internal/node"
	"strtree/internal/storage"
)

// SearchContext is Search with cooperative cancellation: the traversal
// checks ctx before every node read and returns ctx's error (typically
// context.DeadlineExceeded) as soon as it observes it. Items already
// streamed to fn stay delivered.
func (t *Tree) SearchContext(ctx context.Context, q Rect, fn func(Item) bool) error {
	return t.inner.SearchContext(ctx, q, func(e node.Entry) bool {
		return fn(Item{Rect: e.Rect, ID: e.Ref})
	})
}

// SearchPointContext is SearchPoint under a context.
func (t *Tree) SearchPointContext(ctx context.Context, p Point, fn func(Item) bool) error {
	return t.SearchContext(ctx, Rect{Min: p, Max: p}, fn) // aliases p: see rtree.SearchPoint
}

// CountContext is Count under a context.
func (t *Tree) CountContext(ctx context.Context, q Rect) (int, error) {
	return t.inner.CountContext(ctx, q)
}

// NearestKContext is NearestK under a context, checked once per node
// visit of the best-first traversal.
func (t *Tree) NearestKContext(ctx context.Context, p Point, k int) ([]Item, []float64, error) {
	entries, dists, err := t.inner.NearestKContext(ctx, p, k)
	if err != nil {
		return nil, nil, err
	}
	items := make([]Item, len(entries))
	for i, e := range entries {
		items[i] = Item{Rect: e.Rect, ID: e.Ref}
	}
	return items, dists, nil
}

// SearchBatchContext is SearchBatch under a context: every worker's
// traversal checks ctx per node visit, so one deadline bounds the whole
// batch. The first error — a page-read failure or the context's own —
// aborts the batch and is returned wrapped with the failing query's
// index.
func (t *Tree) SearchBatchContext(ctx context.Context, qs []Rect, workers int) ([][]Item, error) {
	ex := t.batchExecutor(workers)
	ex.Search = func(q Rect, emit func(e node.Entry) bool) error {
		return t.inner.SearchContext(ctx, q, emit)
	}
	res, err := ex.Run(qs)
	if err != nil {
		return nil, err
	}
	out := make([][]Item, len(res))
	for i, entries := range res {
		if entries == nil {
			continue
		}
		items := make([]Item, len(entries))
		for j, e := range entries {
			items[j] = Item{Rect: e.Rect, ID: e.Ref}
		}
		out[i] = items
	}
	return out, nil
}

// SearchBatchCountTimed is SearchBatchCount with per-query latency
// observation: observe receives each query's index and wall-clock
// duration, called from the worker goroutines as queries complete — it
// must be safe for concurrent use. cmd/strbench -concurrency feeds an
// internal/histo histogram through this to report percentiles comparable
// with the serving layer's.
func (t *Tree) SearchBatchCountTimed(qs []Rect, workers int, observe func(i int, d time.Duration)) ([]int, error) {
	ex := t.batchExecutor(workers)
	ex.Observe = observe
	return ex.RunCount(qs)
}

// NewOnPager creates an empty tree on a caller-supplied pager. The pager
// interface lives in an internal package, so this constructor serves the
// module's own tools and tests — fault injection through
// storage.FaultyPager, instrumented or tracing pagers — rather than
// external callers, who use New, Create or Open. The tree takes ownership
// of pg: Close closes it.
func NewOnPager(pg storage.Pager, opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	return create(pg, opts)
}
