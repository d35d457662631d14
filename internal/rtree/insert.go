package rtree

import (
	"slices"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// Insert adds one data entry using Guttman's dynamic insertion algorithm:
// ChooseLeaf descends by least area enlargement, overflowing nodes split
// by the tile cut (tilesplit.go), and MBRs are adjusted up the path. This
// is the one-object-at-a-time loading whose shortcomings — load time, space
// utilization and query quality — motivate packing in the paper's
// introduction.
func (t *Tree) Insert(r geom.Rect, ref uint64) error {
	if err := t.checkEntry(r); err != nil {
		return err
	}
	e := node.Entry{Rect: r, Ref: ref}
	if t.height == 0 {
		t.mutStats.structuralInserts.Add(1)
		if err := t.plantRoot(e); err != nil {
			return err
		}
		t.count = 1
		return t.writeMeta()
	}
	t.reinsert.active = t.forcedReinsert
	defer func() {
		t.publish(&t.mut.n)
		t.reinsert.active = false
		clear(t.reinsert.done)
		// On an error path undrained evictions must not leak into the
		// next insertion.
		t.reinsert.pending = t.reinsert.pending[:0]
	}()
	structural, err := t.insertAt(e, 0)
	// Forced reinsertion: entries evicted from overflowing nodes go back
	// in now; their levels are marked done, so a second overflow there
	// splits normally.
	for err == nil && len(t.reinsert.pending) > 0 {
		o := t.reinsert.pending[len(t.reinsert.pending)-1]
		t.reinsert.pending = t.reinsert.pending[:len(t.reinsert.pending)-1]
		_, err = t.insertAt(o.entry, o.level)
	}
	if err != nil {
		return err
	}
	t.count++
	if structural {
		t.mutStats.structuralInserts.Add(1)
	} else {
		t.mutStats.inPlaceInserts.Add(1)
	}
	return t.writeMeta()
}

// plantRoot makes e the only entry of a fresh leaf root: an empty tree's
// first entry.
func (t *Tree) plantRoot(e node.Entry) error {
	id, err := t.newPage()
	if err != nil {
		return err
	}
	root := node.Node{Level: 0, Dims: t.dims, Entries: []node.Entry{e}}
	if err := t.writeNode(id, &root); err != nil {
		return err
	}
	t.root, t.height = id, 1
	return nil
}

// insertAt places e in a node of the given level (0 = leaf; Delete puts
// orphaned subtrees back at level > 0, forced reinsertion likewise) and
// repairs the path above it, growing the tree if the root splits. It
// reports whether the insertion was structural: some node overflowed.
func (t *Tree) insertAt(e node.Entry, level int) (structural bool, err error) {
	path, err := t.choosePath(e.Rect, level)
	if err != nil {
		return false, err
	}
	// Bottom-up: add is what the node at hand must take in — e itself,
	// then the sibling a split below produced — and mbr the new MBR of
	// the child just handled.
	mbr, add, fix := &t.mut.mbr, &e, fixNone
	for j := len(path) - 1; j >= 0; j, fix = j-1, fixRect {
		changed := true
		if add != nil && path[j].count >= t.capacity {
			structural = true
			add, err = t.overflow(path[j], fix, mbr, *add)
		} else {
			changed, err = t.patchNode(path[j], fix, mbr, add)
			add = nil
		}
		if err != nil || !changed {
			return structural, err
		}
	}
	if add == nil {
		return structural, nil
	}
	// Root split: the tree grows a level.
	id, err := t.newPage()
	if err != nil {
		return true, err
	}
	root := node.Node{
		Level:   t.height,
		Dims:    t.dims,
		Entries: []node.Entry{{Rect: *mbr, Ref: uint64(t.root)}, *add},
	}
	if err := t.writeNode(id, &root); err != nil {
		return true, err
	}
	t.root = id
	t.height++
	return true, nil
}

// choosePath is Guttman's ChooseLeaf generalized to a target level: from
// the root, follow the entry needing least enlargement to cover r until a
// node of that level is reached, recording every node visited in the
// reusable path scratch. One page is pinned at a time.
func (t *Tree) choosePath(r geom.Rect, level int) ([]mutStep, error) {
	t.mutScratch()
	path := t.mut.path[:0]
	for id, at := t.root, -1; at != level; {
		f, v, err := t.fetchView(id, &t.mut.n)
		if err != nil {
			return nil, err
		}
		at = v.Level()
		s := mutStep{id: id, count: v.Count()}
		if at != level {
			s.idx = v.LeastEnlargement(r, &t.mut.rect)
			id = storage.PageID(v.EntryRef(s.idx))
		}
		t.pool.Release(f)
		path = append(path, s)
	}
	t.mut.path = path
	return path, nil
}

// overflow handles the full node of step s that must still take in e: the
// node is staged in the tree's scratch with the followed child's rectangle
// brought up to *mbr and e appended, then relieved. With forced reinsertion
// enabled, the first overflow at each level of an insertion evicts the 30% of
// entries farthest from the node center for reinsertion instead of splitting
// (R*-tree OverflowTreatment); otherwise the node splits and the new
// sibling's entry is returned for the parent — in scratch too, good until the
// next overflow. *mbr becomes the node's new MBR. Pages are written child
// before parent and the sibling page is allocated after the node is
// rewritten: page numbering depends on it.
func (t *Tree) overflow(s mutStep, fix childFix, mbr *geom.Rect, e node.Entry) (*node.Entry, error) {
	f, v, err := t.fetchView(s.id, &t.mut.n)
	if err != nil {
		return nil, err
	}
	st := &t.mut.stage
	st.load(v, e)
	n := node.Node{Level: v.Level(), Dims: t.dims, Entries: st.entries}
	t.pool.Release(f)
	if fix == fixRect {
		copy(n.Entries[s.idx].Rect.Min, mbr.Min)
		copy(n.Entries[s.idx].Rect.Max, mbr.Max)
	}
	if t.reinsert.active && s.id != t.root && !t.reinsert.done[n.Level] {
		if t.reinsert.done == nil {
			t.reinsert.done = make(map[int]bool)
		}
		t.reinsert.done[n.Level] = true
		for _, ev := range evictFarthest(&n, len(n.Entries)*3/10) {
			t.reinsert.pending = append(t.reinsert.pending, orphan{level: n.Level, entry: ev})
		}
		mbrInto(mbr, n.Entries)
		return nil, t.writeNode(s.id, &n)
	}
	var right []node.Entry
	n.Entries, right = st.splitTile()
	if err := t.writeNode(s.id, &n); err != nil {
		return nil, err
	}
	sibID, err := t.newPage()
	if err != nil {
		return nil, err
	}
	sib := node.Node{Level: n.Level, Dims: n.Dims, Entries: right}
	if err := t.writeNode(sibID, &sib); err != nil {
		return nil, err
	}
	mbrInto(mbr, n.Entries)
	mbrInto(&t.mut.sib.Rect, right)
	t.mut.sib.Ref = uint64(sibID)
	return &t.mut.sib, nil
}

// mbrInto computes the MBR of entries into dst, which already has their
// dimensionality: node.Node.MBR without the allocation.
func mbrInto(dst *geom.Rect, entries []node.Entry) {
	copy(dst.Min, entries[0].Rect.Min)
	copy(dst.Max, entries[0].Rect.Max)
	for _, e := range entries[1:] {
		dst.UnionInPlace(e.Rect)
	}
}

// appendEntries appends copies of v's entries to dst, their coordinates in
// slab, which is empty and lends its capacity: the one place a page's whole
// entry set leaves the page, for the node a mutation splits (into the tree's
// scratch) or dissolves and for Check's round trip (onto the heap, slab nil).
// slab is grown before the first rectangle is sliced out of it, so the copies
// outlive the pin.
func appendEntries(dst []node.Entry, slab []float64, v node.View) ([]node.Entry, []float64) {
	dims := v.Dims()
	dst = slices.Grow(dst, v.Count())
	slab = slices.Grow(slab, 2*dims*v.Count())
	for i := 0; i < v.Count(); i++ {
		slab = v.AppendEntryCoords(slab, i)
		dst = append(dst, node.Entry{Rect: slabRect(slab, i, dims), Ref: v.EntryRef(i)})
	}
	return dst, slab
}

// evictFarthest removes the count entries whose centers are farthest from
// the node MBR's center, returning them (deep-copied) for reinsertion. At
// least one entry is evicted so the node drops below capacity.
func evictFarthest(n *node.Node, count int) []node.Entry {
	if count < 1 {
		count = 1
	}
	center := n.MBR().Center()
	type scored struct {
		idx  int
		dist float64
	}
	scores := make([]scored, len(n.Entries))
	for i := range n.Entries {
		d := 0.0
		for axis := range center {
			delta := n.Entries[i].Rect.CenterAxis(axis) - center[axis]
			d += delta * delta
		}
		scores[i] = scored{idx: i, dist: d}
	}
	slices.SortFunc(scores, func(a, b scored) int {
		switch {
		case a.dist > b.dist:
			return -1
		case a.dist < b.dist:
			return 1
		default:
			return 0
		}
	})
	evictSet := make(map[int]bool, count)
	for _, s := range scores[:count] {
		evictSet[s.idx] = true
	}
	var evicted, kept []node.Entry
	for i := range n.Entries {
		if evictSet[i] {
			evicted = append(evicted, node.Entry{Rect: n.Entries[i].Rect.Clone(), Ref: n.Entries[i].Ref})
		} else {
			kept = append(kept, n.Entries[i])
		}
	}
	n.Entries = kept
	return evicted
}
