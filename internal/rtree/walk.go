package rtree

import (
	"fmt"

	"strtree/internal/buffer"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// fetchFull pins page id and returns a view over its bytes built by the
// full node.MakeView plus the tree-dims gate, whatever the frame's Checked
// mark says, and without setting it. It is how the code that exists to
// distrust memory — Walk and Check — reads a page: a write to a resident
// frame outside the pin protocol (no MarkDirty, no write pin) is invisible
// to the mark the query path trusts (viewOf) and visible here. The caller
// must Release the frame; these visits are not counted in ReadStats.
func (t *Tree) fetchFull(id storage.PageID) (*buffer.Frame, node.View, error) {
	f, err := t.pool.Fetch(id)
	if err != nil {
		return nil, node.View{}, err
	}
	v, err := node.MakeView(f.Data())
	if err == nil && v.Dims() != t.dims {
		err = t.dimsError(v)
	}
	if err != nil {
		t.pool.Release(f)
		return nil, node.View{}, fmt.Errorf("rtree: page %d: %w", id, err)
	}
	return f, v, nil
}

// Walk visits every node of the tree in depth-first preorder, leftmost
// child first, passing the page id and a view of the page. The view aliases
// the pinned page and is valid only inside the callback; returning false
// from fn stops the walk. One page is pinned at a time and each page is
// fetched once per visit, so the walk counts as buffer accesses; callers
// measuring queries should reset pool stats afterwards.
//
// The walk follows a child reference only to a page that says it sits
// exactly one level below its parent, the root at height-1: a page that
// lies about its level, references itself or references an ancestor ends
// the walk with an error wrapping ErrUnbalanced and node.ErrCorrupt instead
// of an index out of range in the caller or an endless descent.
func (t *Tree) Walk(fn func(id storage.PageID, v node.View) bool) error {
	return t.walk(func(id storage.PageID, _ []byte, v node.View) bool { return fn(id, v) })
}

// walk is Walk with the page's raw bytes beside the view, for Check's
// comparison of each page with its re-fill.
func (t *Tree) walk(fn func(id storage.PageID, page []byte, v node.View) bool) error {
	if t.height == 0 {
		return nil
	}
	type step struct {
		id    storage.PageID
		level int
	}
	stack := []step{{t.root, t.height - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		f, v, err := t.fetchFull(s.id)
		if err != nil {
			return err
		}
		if v.Level() != s.level {
			t.pool.Release(f)
			return fmt.Errorf("%w: page %d at level %d, expected level %d (%w)",
				ErrUnbalanced, s.id, v.Level(), s.level, node.ErrCorrupt)
		}
		more := fn(s.id, f.Data(), v)
		if more && !v.IsLeaf() {
			// Pushed last to first, so the leftmost child pops first.
			for i := v.Count() - 1; i >= 0; i-- {
				stack = append(stack, step{storage.PageID(v.EntryRef(i)), s.level - 1})
			}
		}
		t.pool.Release(f)
		if !more {
			return nil
		}
	}
	return nil
}
