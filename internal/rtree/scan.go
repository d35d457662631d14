package rtree

import (
	"strtree/internal/geom"
	"strtree/internal/node"
)

// Scan streams every data entry in the tree in leaf order (for packed
// trees, the packing order). Returning false from fn stops the scan. It is
// the window traversal (searchView) over the window that covers everything,
// started from a covered root: every page is visited, in the depth-first
// preorder of Walk, no internal node tests its entries, and the pooled
// state makes a steady-state Scan allocation-free. The entry's rectangle
// aliases pooled traversal storage and is only valid during the callback;
// Clone it to retain it.
func (t *Tree) Scan(fn func(e node.Entry) bool) error {
	_, err := t.searchView(nil, t.everywhere, true, fn, nil)
	return err
}

// CompactInto repacks this tree's current contents into dst, which must be
// an empty tree of the same dimensionality, using the given packing order.
// This realizes the maintenance strategy behind the paper's proposed
// "dynamic R-tree variants based on the STR packing algorithm": run
// dynamic updates against a tree, then periodically rebuild it packed to
// recover near-100% utilization and query quality. The contents are read
// in Scan's order by the collecting read (Collect's traversal from a
// covered root), so each leaf costs one allocation, not each entry.
func (t *Tree) CompactInto(dst *Tree, o Orderer) error {
	var items []geom.Item
	if _, err := t.searchView(nil, t.everywhere, true, nil, &items); err != nil {
		return err
	}
	return dst.BulkLoadFunc(len(items), func(i int) (geom.Rect, uint64) { return items[i].Rect, items[i].ID }, o)
}
