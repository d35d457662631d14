package rtree

import (
	"fmt"

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
	if err := t.unmarshalNode(id, &n); err != nil {
		return false, err
	}
	if n.Level == 0 {
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

// unmarshalNode loads the node stored on page id into dst: one Fetch, a
// whole-page node.Unmarshal, Release. It is the read step of the
// materializing references in this file, which is all that is left of the
// library's second page decoder.
func (t *Tree) unmarshalNode(id storage.PageID, dst *node.Node) error {
	f, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	err = node.Unmarshal(f.Data(), dst)
	t.pool.Release(f)
	if err != nil {
		return fmt.Errorf("rtree: page %d: %w", id, err)
	}
	return nil
}

// WalkUnmarshal is the recursive, materializing reference implementation
// of Walk (what Walk was before it ran on views), kept as a test-only
// oracle: Walk must visit the same pages in the same order with the same
// fetches and show the same entries (TestWalkMatchesUnmarshal).
func (t *Tree) WalkUnmarshal(fn func(id storage.PageID, n *node.Node) bool) error {
	if t.height == 0 {
		return nil
	}
	_, err := t.walkRec(t.root, fn)
	return err
}

func (t *Tree) walkRec(id storage.PageID, fn func(storage.PageID, *node.Node) bool) (more bool, err error) {
	var n node.Node
	if err := t.unmarshalNode(id, &n); err != nil {
		return false, err
	}
	if !fn(id, &n) {
		return false, nil
	}
	if n.Level == 0 {
		return true, nil
	}
	for _, e := range n.Entries {
		more, err := t.walkRec(storage.PageID(e.Ref), fn)
		if err != nil || !more {
			return more, err
		}
	}
	return true, nil
}
