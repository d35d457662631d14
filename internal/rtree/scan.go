package rtree

import (
	"strtree/internal/node"
	"strtree/internal/storage"
)

// Scan streams every data entry in the tree in leaf order (for packed
// trees, the packing order). Returning false from fn stops the scan. The
// scan runs on the zero-copy read path with a pooled explicit stack,
// visiting nodes in the same depth-first preorder as Walk. The entry's
// rectangle aliases pooled traversal storage and is only valid during the
// callback; Clone it to retain it (Entries does).
func (t *Tree) Scan(fn func(e node.Entry) bool) error {
	if t.height == 0 {
		return nil
	}
	t.readQueries.Add(1)
	tr := t.getTraverser()
	defer t.putTraverser(tr)
	dims := t.dims
	tr.stack = append(tr.stack[:0], t.root)
	for len(tr.stack) > 0 {
		top := len(tr.stack) - 1
		id := tr.stack[top]
		tr.stack = tr.stack[:top]
		f, v, err := t.fetchView(id, &tr.n)
		if err != nil {
			return err
		}
		if v.IsLeaf() {
			tr.slab = tr.slab[:0]
			tr.refs = tr.refs[:0]
			for i := 0; i < v.Count(); i++ {
				tr.slab = v.AppendEntryCoords(tr.slab, i)
				tr.refs = append(tr.refs, v.EntryRef(i))
			}
			t.pool.Release(f)
			for i, ref := range tr.refs {
				if !fn(node.Entry{Rect: slabRect(tr.slab, i, dims), Ref: ref}) {
					return nil
				}
			}
			continue
		}
		base := len(tr.stack)
		for i := 0; i < v.Count(); i++ {
			tr.stack = append(tr.stack, storage.PageID(v.EntryRef(i)))
		}
		t.pool.Release(f)
		reversePages(tr.stack[base:])
	}
	return nil
}

// Entries collects deep copies of every data entry in the tree, the input
// needed to repack it (CompactInto).
func (t *Tree) Entries() ([]node.Entry, error) {
	out := make([]node.Entry, 0, t.count)
	err := t.Scan(func(e node.Entry) bool {
		out = append(out, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
		return true
	})
	return out, err
}

// CompactInto repacks this tree's current contents into dst, which must be
// an empty tree of the same dimensionality, using the given packing order.
// This realizes the maintenance strategy behind the paper's proposed
// "dynamic R-tree variants based on the STR packing algorithm": run
// dynamic updates against a tree, then periodically rebuild it packed to
// recover near-100% utilization and query quality.
func (t *Tree) CompactInto(dst *Tree, o Orderer) error {
	entries, err := t.Entries()
	if err != nil {
		return err
	}
	return dst.BulkLoad(entries, o)
}
