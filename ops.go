package strtree

import (
	"errors"
	"fmt"

	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/rtree"
)

// NearestK returns the k items nearest to p and their distances, closest
// first (distance from p to the item's rectangle; items containing p come
// first with distance 0, items at one distance in ascending ID order). It
// is the best-first nearest-neighbor search of Hjaltason and Samet over the
// same paged tree the range queries use, which, knowing k, skips what lies
// strictly beyond the k-th. The items are copies, safe to retain.
func (t *Tree) NearestK(p Point, k int) ([]Item, []float64, error) {
	entries, dists, err := t.inner.NearestK(p, k)
	if err != nil {
		return nil, nil, err
	}
	items := make([]Item, len(entries))
	for i, e := range entries {
		items[i] = Item{Rect: e.Rect, ID: e.Ref}
	}
	return items, dists, nil
}

// Join streams every intersecting pair of items between two trees using a
// synchronized traversal that skips disjoint subtrees — the standard
// R-tree spatial join. Joining a tree with itself reports symmetric pairs
// twice and self-pairs; filter with a.ID < b.ID for distinct unordered
// pairs. Returning false from fn stops the join.
func Join(a, b *Tree, fn func(ia, ib Item) bool) error {
	return rtree.Join(a.inner, b.inner, func(ea, eb node.Entry) bool {
		return fn(Item{Rect: ea.Rect, ID: ea.Ref}, Item{Rect: eb.Rect, ID: eb.Ref})
	})
}

// Scan streams every item in leaf order (the packing order for
// bulk-loaded trees). Returning false stops the scan. The item's rectangle
// is only valid during the callback; Clone it to retain it.
func (t *Tree) Scan(fn func(it Item) bool) error {
	return t.inner.Scan(func(e node.Entry) bool {
		return fn(Item{Rect: e.Rect, ID: e.Ref})
	})
}

// CompactInto repacks this tree's contents into dst (an empty tree of the
// same dimensionality) with the chosen packing algorithm. After a long run
// of dynamic updates this restores packed-tree utilization and query
// performance — the maintenance pattern behind the paper's proposed
// STR-based dynamic variants.
func (t *Tree) CompactInto(dst *Tree, p Packing) error {
	o, err := p.orderer(dst.inner.Workers())
	if err != nil {
		return err
	}
	return t.inner.CompactInto(dst.inner, o)
}

// Bounds returns the bounding rectangle of everything in the tree, and
// false when the tree is empty.
func (t *Tree) Bounds() (Rect, bool, error) { return t.inner.Bounds() }

// Utilization returns the average leaf fill fraction (1.0 = every leaf
// full, the hallmark of a packed tree).
func (t *Tree) Utilization() (float64, error) { return t.inner.Utilization() }

// ExternalOptions bound the memory used by BulkLoadExternal.
type ExternalOptions struct {
	// RunSize is the maximum number of items one sort run holds in memory.
	// A run holds each item as a page record of 16·dims + 8 bytes, so the
	// default, 1 << 20, is 40 MB of 2-D records a run; sorting one takes
	// as much again plus 32 B an item, and an input that fits one run is
	// ordered with 32 B an item beside it.
	RunSize int
	// TmpDir hosts the spill files ("" = the OS temporary directory).
	TmpDir string
	// Workers bounds the goroutines each sort phase uses: up to Workers
	// runs are sorted and spilled, one goroutine each, while the next one
	// fills, and a phase that fits one run is sorted by all of them. Above
	// 1, the last axis's next slab is sorted on one more goroutine and the
	// one after it merged on another while the current one is packed. 0
	// means the tree's Workers setting (Options.Workers). The packed tree
	// is byte-for-byte identical for every setting.
	Workers int
}

// BulkLoadExternal packs the tree with STR from a stream of items, in
// memory bounded by ExternalOptions.RunSize and Workers regardless of
// input size: the STR sort phases run as external merge sorts that spill
// sorted runs to temporary files, and leaves are written as the ordered
// stream is pulled off the merge. An input that fits one run is ordered in
// memory, as BulkLoad orders it, holding the run and 32 B an item. A
// larger one is sorted in phases: the first-axis sort holds the run being
// filled and up to Workers runs being sorted, each with its sorted copy,
// and its merge a few 512-item batches per run; then each slab is sorted
// in turn, in memory when it fits one run. With Workers > 1 two more slabs
// are held, one being merged and one being sorted ahead of the loader: at
// most RunSize of each one's items in memory, the rest spilled. Buffers a
// phase is done with serve the next, so the build allocates about what it
// holds. It writes the file BulkLoad(PackSTR) writes from the same items,
// at any dimensionality. Use it when the data set does not fit in RAM; for
// in-memory slices BulkLoad is faster. The tree must be empty.
func (t *Tree) BulkLoadExternal(next func() (Item, bool), opts ExternalOptions) error {
	workers := opts.Workers
	if workers == 0 {
		workers = t.inner.Workers()
	}
	dims := t.Dims()
	rec, items := make([]byte, node.EntrySize(dims)), 0
	packer := pack.STRExternal{RunSize: opts.RunSize, TmpDir: opts.TmpDir, Workers: workers}
	ordered, err := packer.Open(dims, t.Capacity(), func() ([]byte, bool, error) {
		it, ok := next()
		if !ok {
			return nil, false, nil
		}
		if len(it.Rect.Min) != dims || len(it.Rect.Max) != dims {
			return nil, false, fmt.Errorf("strtree: item %d: rectangle dimension %d, tree dimension %d", items, it.Rect.Dim(), dims)
		}
		items++
		node.PutRecord(rec, it.Rect, it.ID)
		return rec, true, nil
	})
	if err != nil {
		return err
	}
	err = errors.Join(t.inner.BulkLoadOrdered(ordered.NextRun, pack.STR{Workers: workers}), ordered.Close())
	if err == nil {
		t.extSortStats = ordered.Stats()
	}
	return err
}
