package rtree

import (
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// Delete removes the data entry with exactly this rectangle and reference,
// following Guttman's algorithm: FindLeaf, remove, CondenseTree (underfull
// nodes are dissolved and their entries reinserted at their original
// level), and the root is collapsed when it has a single child. It reports
// whether an entry was removed.
func (t *Tree) Delete(r geom.Rect, ref uint64) (bool, error) {
	if err := t.checkEntry(r); err != nil {
		return false, err
	}
	if t.height == 0 {
		return false, nil
	}
	t.mutScratch()
	defer t.publish(&t.mut.n)
	t.mut.path, t.mut.cands = t.mut.path[:0], t.mut.cands[:0]
	found, err := t.findLeaf(t.root, r, ref)
	if err != nil || !found {
		return false, err
	}
	t.count--

	// CondenseTree, bottom-up along the path. Losing the entry may leave
	// the leaf underfull, its dissolution the parent, and so on: a chain
	// of non-root nodes from the leaf up dissolves into orphans.
	path := t.mut.path
	var orphans []orphan
	j := len(path) - 1
	for ; j > 0 && path[j].count-1 < t.minFill; j-- {
		if orphans, err = t.dissolve(path[j], orphans); err != nil {
			return false, err
		}
	}
	structural := j < len(path)-1
	// The first node that survives loses the entry in place; above it
	// rectangles tighten until one is already exact.
	rootShrank := j == 0
	for fix, changed := fixGone, true; j >= 0 && changed; j, fix = j-1, fixRect {
		if changed, err = t.patchNode(path[j], fix, &t.mut.mbr, nil); err != nil {
			return false, err
		}
	}
	if rootShrank {
		collapsed, err := t.collapseRoot()
		if err != nil {
			return false, err
		}
		structural = structural || collapsed
	}

	// Reinsert orphaned entries at their original levels, processed as a
	// stack (higher-level subtree entries first). A stack, not an indexed
	// walk: dissolving a too-tall orphan below pushes its children back
	// onto the list, and those must be processed too.
	for len(orphans) > 0 {
		o := orphans[len(orphans)-1]
		orphans = orphans[:len(orphans)-1]
		switch {
		case t.height == 0:
			// Tree emptied; orphans can only be leaf entries in that case.
			err = t.plantRoot(o.entry)
		case o.level >= t.height:
			// The tree shrank below the orphan's level; re-add its
			// children instead. (Rare: only when the root collapsed.)
			orphans, err = t.dissolve(mutStep{id: storage.PageID(o.entry.Ref), idx: -1}, orphans)
		default:
			_, err = t.insertAt(o.entry, o.level)
		}
		if err != nil {
			return false, err
		}
	}
	if structural {
		t.mutStats.structuralDeletes.Add(1)
	} else {
		t.mutStats.inPlaceDeletes.Add(1)
	}
	return true, t.writeMeta()
}

// orphan is an entry displaced by CondenseTree or forced reinsertion,
// remembered with the level it must be reinserted at. For level 0 the entry
// is a data entry; for level L > 0 it points at a subtree of height L.
type orphan struct {
	level int
	entry node.Entry
}

// cand is an entry of an internal node that FindLeaf has yet to explore:
// its index in the node and the child page it points to.
type cand struct {
	idx int
	id  storage.PageID
}

// findLeaf is Guttman's FindLeaf: depth-first over the children whose
// rectangles intersect r, in entry order, appending to t.mut.path the path
// to the first leaf holding (r, ref). A node's candidate children are
// banked in t.mut.cands — one slab used as a stack, each frame above its
// caller's — while the node is pinned, so at most one pin is held at any
// moment and a warm search allocates nothing.
func (t *Tree) findLeaf(id storage.PageID, r geom.Rect, ref uint64) (bool, error) {
	f, v, err := t.fetchView(id, &t.mut.n)
	if err != nil {
		return false, err
	}
	s := mutStep{id: id, idx: -1, count: v.Count()}
	if v.IsLeaf() {
		for i := 0; i < s.count && s.idx < 0; i++ {
			if v.EntryRef(i) == ref {
				v.EntryRectInto(i, &t.mut.rect)
				if t.mut.rect.Equal(r) {
					s.idx = i
				}
			}
		}
		t.pool.Release(f)
		if s.idx < 0 {
			return false, nil
		}
		t.mut.path = append(t.mut.path, s)
		return true, nil
	}
	base := len(t.mut.cands)
	t.mut.hits = v.AppendIntersecting(t.mut.hits[:0], r)
	for _, i := range t.mut.hits {
		t.mut.cands = append(t.mut.cands, cand{idx: int(i), id: storage.PageID(v.EntryRef(int(i)))})
	}
	t.pool.Release(f)
	end, depth := len(t.mut.cands), len(t.mut.path)
	t.mut.path = append(t.mut.path, s)
	for k := base; k < end; k++ {
		c := t.mut.cands[k]
		t.mut.path[depth].idx = c.idx
		found, err := t.findLeaf(c.id, r, ref)
		if err != nil || found {
			return found, err
		}
	}
	t.mut.path, t.mut.cands = t.mut.path[:depth], t.mut.cands[:base]
	return false, nil
}

// dissolve frees the node of step s and queues its entries, all but the
// one the step followed (already gone), for reinsertion at the node's
// level. The caller drops the parent's entry for it.
func (t *Tree) dissolve(s mutStep, orphans []orphan) ([]orphan, error) {
	f, v, err := t.fetchView(s.id, &t.mut.n)
	if err != nil {
		return orphans, err
	}
	entries := copyEntries(v)
	for i, e := range entries {
		if i != s.idx {
			orphans = append(orphans, orphan{level: v.Level(), entry: e})
		}
	}
	t.pool.Release(f)
	t.freePage(s.id)
	return orphans, nil
}

// collapseRoot shortens the tree after its root lost an entry: an internal
// root left with one child is replaced by that child, repeatedly, and an
// empty leaf root empties the tree. It reports whether the root changed.
func (t *Tree) collapseRoot() (bool, error) {
	collapsed := false
	for {
		f, v, err := t.fetchView(t.root, &t.mut.n)
		if err != nil {
			return collapsed, err
		}
		leaf, count := v.IsLeaf(), v.Count()
		only := storage.NilPage
		if !leaf && count == 1 {
			only = storage.PageID(v.EntryRef(0))
		}
		t.pool.Release(f)
		switch {
		case leaf && count == 0 && t.count == 0:
			t.freePage(t.root)
			t.root, t.height = storage.NilPage, 0
			return true, nil
		case only != storage.NilPage:
			t.freePage(t.root)
			t.root = only
			t.height--
			collapsed = true
		default:
			return collapsed, nil
		}
	}
}

// copyEntries returns copies of v's entries, their coordinates in one
// slab of their own: the one place a page's whole entry set leaves the page
// as entries, for the node a delete dissolves. The slab is sized up front,
// so no append moves a rectangle already sliced out of it, and the copies
// outlive the pin.
func copyEntries(v node.View) []node.Entry {
	dims, n := v.Dims(), v.Count()
	entries := make([]node.Entry, 0, n)
	slab := make([]float64, 0, 2*dims*n)
	for i := 0; i < n; i++ {
		slab = v.AppendEntryCoords(slab, i)
		entries = append(entries, node.Entry{Rect: slabRect(slab, i, dims), Ref: v.EntryRef(i)})
	}
	return entries
}
