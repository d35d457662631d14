package rtree

import "strtree/internal/node"

// Scan streams every data entry in the tree in leaf order (for packed
// trees, the packing order). Returning false from fn stops the scan. It is
// the window traversal (searchView) over the window that covers everything,
// started from a covered root: every page is visited, in the depth-first
// preorder of Walk, no internal node tests its entries, and the pooled
// state makes a steady-state Scan allocation-free. The entry's rectangle
// aliases pooled traversal storage and is only valid during the callback;
// Clone it to retain it (Entries does).
func (t *Tree) Scan(fn func(e node.Entry) bool) error {
	_, err := t.searchView(nil, t.everywhere, true, fn)
	return err
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
