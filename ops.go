package strtree

import (
	"errors"
	"fmt"
	"io"

	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// Nearest streams items in order of increasing Euclidean distance from p
// (distance from p to the item's rectangle; items containing p come first
// with distance 0). Returning false from fn stops the search. This is the
// incremental best-first nearest-neighbor search of Hjaltason and Samet
// over the same paged tree the range queries use.
func (t *Tree) Nearest(p Point, fn func(it Item, dist float64) bool) error {
	return t.inner.Nearest(p, func(e node.Entry, d float64) bool {
		return fn(Item{Rect: e.Rect, ID: e.Ref}, d)
	})
}

// NearestK returns the k items nearest to p and their distances, closest
// first: exactly the first k items Nearest streams (items at one distance
// come in ascending ID order), found by a traversal that, knowing k, skips
// what lies strictly beyond the k-th. The items are copies, safe to retain.
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

// JoinWithin streams every pair of items from the two trees whose
// rectangles lie within Euclidean distance dist of each other — the
// within-distance spatial join ("all hydrants within 100m of a building").
// dist 0 is the intersection join.
func JoinWithin(a, b *Tree, dist float64, fn func(ia, ib Item) bool) error {
	return rtree.JoinWithin(a.inner, b.inner, dist, func(ea, eb node.Entry) bool {
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

// Items collects a deep copy of every item in the tree.
func (t *Tree) Items() ([]Item, error) {
	entries, err := t.inner.Entries()
	if err != nil {
		return nil, err
	}
	items := make([]Item, len(entries))
	for i, e := range entries {
		items[i] = Item{Rect: e.Rect, ID: e.Ref}
	}
	return items, nil
}

// CompactInto repacks this tree's contents into dst (an empty tree of the
// same dimensionality) with the chosen packing algorithm. After a long run
// of dynamic updates this restores packed-tree utilization and query
// performance — the maintenance pattern behind the paper's proposed
// STR-based dynamic variants.
func (t *Tree) CompactInto(dst *Tree, p Packing) error {
	if dst.readonly {
		return ErrReadOnly
	}
	o, err := p.orderer(dst.inner.Workers())
	if err != nil {
		return err
	}
	return t.inner.CompactInto(dst.inner, o)
}

// SearchWithin streams every item whose rectangle is fully contained in q
// (window containment, versus Search's intersection semantics).
func (t *Tree) SearchWithin(q Rect, fn func(it Item) bool) error {
	return t.inner.SearchWithin(q, func(e node.Entry) bool {
		return fn(Item{Rect: e.Rect, ID: e.Ref})
	})
}

// Bounds returns the bounding rectangle of everything in the tree, and
// false when the tree is empty.
func (t *Tree) Bounds() (Rect, bool, error) { return t.inner.Bounds() }

// Utilization returns the average leaf fill fraction (1.0 = every leaf
// full, the hallmark of a packed tree).
func (t *Tree) Utilization() (float64, error) { return t.inner.Utilization() }

// DeleteRange removes every item whose rectangle intersects q and returns
// how many were removed. It collects the matches first, then deletes them
// one by one, so the tree stays valid even if the callback-free bulk
// operation is interrupted by an error partway.
func (t *Tree) DeleteRange(q Rect) (int, error) {
	if t.readonly {
		return 0, ErrReadOnly
	}
	victims, err := t.All(q)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, it := range victims {
		ok, err := t.Delete(it.Rect, it.ID)
		if err != nil {
			return removed, err
		}
		if ok {
			removed++
		}
	}
	return removed, nil
}

// SaveTo writes a compacted copy of the tree to a new index file at path,
// repacked with the given algorithm — a backup that is also a defragment.
// The original tree is unchanged.
func (t *Tree) SaveTo(path string, p Packing) error {
	dst, err := Create(path, Options{
		Dims:     t.Dims(),
		PageSize: t.pager.PageSize(),
		Capacity: t.Capacity(),
	})
	if err != nil {
		return err
	}
	if err := t.CompactInto(dst, p); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// DumpDOT writes the tree's structure in Graphviz DOT format: one box per
// node showing its page, level and fill, with edges to children. Render
// with `dot -Tsvg`. Intended for debugging and teaching; large trees make
// large graphs.
func (t *Tree) DumpDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph rtree {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, `  node [shape=box, fontname="monospace"];`); err != nil {
		return err
	}
	var werr error
	err := t.inner.Walk(func(id storage.PageID, v node.View) bool {
		_, werr = fmt.Fprintf(w, "  p%d [label=\"page %d\\nlevel %d\\n%d/%d entries\"];\n",
			id, id, v.Level(), v.Count(), t.Capacity())
		if !v.IsLeaf() {
			for i := 0; i < v.Count() && werr == nil; i++ {
				_, werr = fmt.Fprintf(w, "  p%d -> p%d;\n", id, storage.PageID(v.EntryRef(i)))
			}
		}
		return werr == nil
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "}")
	return err
}

// ExternalOptions bound the memory used by BulkLoadExternal.
type ExternalOptions struct {
	// RunSize is the maximum number of items held in memory during the
	// sort phases. A run holds each item as a page record of 16·dims + 8
	// bytes, so the default, 1 << 20, is 40 MB of 2-D records a run;
	// sorting one takes as much again plus 32 B an item, and up to
	// Workers runs are sorted while the next one fills.
	RunSize int
	// TmpDir hosts the spill files ("" = the OS temporary directory).
	TmpDir string
	// Workers bounds the goroutines the external sort phases use to
	// overlap run sorting and spilling with input streaming. 0 means the
	// tree's Workers setting (Options.Workers). The packed tree is
	// byte-for-byte identical for every setting.
	Workers int
}

// BulkLoadExternal packs the tree with STR from a stream of items,
// keeping memory bounded by ExternalOptions.RunSize regardless of input
// size: the STR sort phases run as external merge sorts that spill sorted
// runs to temporary files, and leaves are written as the ordered stream
// is pulled off the merge. It writes the file BulkLoad(PackSTR) writes from
// the same items, at any dimensionality. Use it when the data set does not
// fit in RAM; for in-memory slices BulkLoad is faster. The tree must be
// empty.
func (t *Tree) BulkLoadExternal(next func() (Item, bool), opts ExternalOptions) error {
	if t.readonly {
		return ErrReadOnly
	}
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
	err = errors.Join(t.inner.BulkLoadOrdered(ordered.Next, pack.STR{Workers: workers}), ordered.Close())
	if err == nil {
		t.extSortStats = ordered.Stats()
	}
	return err
}
