package rtree

import (
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// SearchUnmarshal is the recursive, materializing reference
// implementation of Search, kept as a test-only oracle: every visited page
// is decoded with node.Unmarshal into a fresh node.Node. Search must visit
// the same pages in the same order and report the same entries, which the
// differential tests in view_path_test.go assert.
func (t *Tree) SearchUnmarshal(q geom.Rect, fn func(e node.Entry) bool) error {
	if err := t.checkEntry(q); err != nil {
		return err
	}
	if t.height == 0 {
		return nil
	}
	_, err := t.searchRec(t.root, q, fn)
	return err
}

func (t *Tree) searchRec(id storage.PageID, q geom.Rect, fn func(node.Entry) bool) (more bool, err error) {
	var n node.Node
	if err := t.readNode(id, &n); err != nil {
		return false, err
	}
	if n.IsLeaf() {
		for _, e := range n.Entries {
			if !q.Intersects(e.Rect) {
				continue
			}
			if !fn(e) {
				return false, nil
			}
		}
		return true, nil
	}
	for _, e := range n.Entries {
		if !q.Intersects(e.Rect) {
			continue
		}
		more, err := t.searchRec(storage.PageID(e.Ref), q, fn)
		if err != nil || !more {
			return more, err
		}
	}
	return true, nil
}
