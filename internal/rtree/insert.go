package rtree

import (
	"math"
	"slices"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// Insert adds one data entry using Guttman's dynamic insertion algorithm:
// ChooseLeaf descends by least area enlargement, overflowing nodes split
// (linear, quadratic or R* per the tree's configuration), and MBRs are
// adjusted up the path. This is the one-object-at-a-time loading whose
// shortcomings — load time, space utilization and query quality — motivate
// packing in the paper's introduction.
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
			s.idx = chooseSubtreeView(v, r, &t.mut.rect)
			id = storage.PageID(v.EntryRef(s.idx))
		}
		t.pool.Release(f)
		path = append(path, s)
	}
	t.mut.path = path
	return path, nil
}

// chooseSubtreeView returns the index of the entry needing least
// enlargement to cover r, breaking ties by smallest area (Guttman's
// ChooseLeaf step CL3).
func chooseSubtreeView(v node.View, r geom.Rect, scratch *geom.Rect) int {
	best := 0
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i := 0; i < v.Count(); i++ {
		v.EntryRectInto(i, scratch)
		enl := scratch.Enlargement(r)
		area := scratch.Area()
		//strlint:ignore floateq exact tie-break on equal enlargement, per Guttman; a tolerance would misclassify near-ties
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// overflow handles the full node of step s that must still take in e: the
// node is materialized with the followed child's rectangle brought up to
// *mbr and e appended, then relieved. With forced reinsertion enabled, the
// first overflow at each level of an insertion evicts the 30% of entries
// farthest from the node center for reinsertion instead of splitting
// (R*-tree OverflowTreatment); otherwise the node splits and the new
// sibling's entry is returned for the parent. *mbr becomes the node's new
// MBR. Pages are written child before parent and the sibling page is
// allocated after the node is rewritten: page numbering depends on it.
func (t *Tree) overflow(s mutStep, fix childFix, mbr *geom.Rect, e node.Entry) (*node.Entry, error) {
	f, v, err := t.fetchView(s.id, &t.mut.n)
	if err != nil {
		return nil, err
	}
	n := node.Node{Level: v.Level(), Dims: t.dims, Entries: appendEntries(nil, v)}
	t.pool.Release(f)
	if fix == fixRect {
		n.Entries[s.idx].Rect = mbr.Clone()
	}
	n.Entries = append(n.Entries, e)
	if t.reinsert.active && s.id != t.root && !t.reinsert.done[n.Level] {
		if t.reinsert.done == nil {
			t.reinsert.done = make(map[int]bool)
		}
		t.reinsert.done[n.Level] = true
		for _, ev := range evictFarthest(&n, len(n.Entries)*3/10) {
			t.reinsert.pending = append(t.reinsert.pending, orphan{level: n.Level, entry: ev})
		}
		*mbr = n.MBR()
		return nil, t.writeNode(s.id, &n)
	}
	left, right := t.splitEntries(n.Entries)
	n.Entries = left
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
	*mbr = n.MBR()
	return &node.Entry{Rect: sib.MBR(), Ref: uint64(sibID)}, nil
}

// appendEntries appends owned copies of v's entries to dst: the one place a
// page's whole entry set is brought onto the heap, for the node a mutation
// splits or dissolves and for Check's round trip. The rectangles share one
// fresh coordinate slab, so they outlive the pin.
func appendEntries(dst []node.Entry, v node.View) []node.Entry {
	dims := v.Dims()
	dst = slices.Grow(dst, v.Count())
	slab := make([]float64, 0, 2*dims*v.Count())
	for i := 0; i < v.Count(); i++ {
		slab = v.AppendEntryCoords(slab, i)
		dst = append(dst, node.Entry{Rect: slabRect(slab, i, dims), Ref: v.EntryRef(i)})
	}
	return dst
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

// splitEntries divides an overflowing entry set (capacity+1 long) into two
// groups per the configured heuristic. Both groups receive at least
// minFill entries.
func (t *Tree) splitEntries(entries []node.Entry) (left, right []node.Entry) {
	switch t.split {
	case SplitQuadratic:
		return splitQuadratic(entries, t.minFill)
	case SplitRStar:
		return splitRStar(entries, t.minFill)
	default:
		return splitLinear(entries, t.minFill)
	}
}

// splitLinear is Guttman's linear split: pick the two seeds with greatest
// normalized separation along any axis, then assign the rest in input
// order to the group needing least enlargement.
func splitLinear(entries []node.Entry, minFill int) (left, right []node.Entry) {
	dims := entries[0].Rect.Dim()
	seedA, seedB := 0, 1
	bestSep := math.Inf(-1)
	for d := 0; d < dims; d++ {
		// Highest low side and lowest high side, plus the axis extent.
		hiLow, loHigh := 0, 0
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range entries {
			r := entries[i].Rect
			if r.Min[d] > entries[hiLow].Rect.Min[d] {
				hiLow = i
			}
			if r.Max[d] < entries[loHigh].Rect.Max[d] {
				loHigh = i
			}
			lo = math.Min(lo, r.Min[d])
			hi = math.Max(hi, r.Max[d])
		}
		if hiLow == loHigh {
			continue
		}
		sep := entries[hiLow].Rect.Min[d] - entries[loHigh].Rect.Max[d]
		if width := hi - lo; width > 0 {
			sep /= width
		}
		if sep > bestSep {
			bestSep = sep
			seedA, seedB = loHigh, hiLow
		}
	}
	return distribute(entries, seedA, seedB, minFill)
}

// splitQuadratic is Guttman's quadratic split: seeds are the pair wasting
// the most area if grouped together; remaining entries are assigned one at
// a time, each time picking the entry with the strongest preference.
func splitQuadratic(entries []node.Entry, minFill int) (left, right []node.Entry) {
	seedA, seedB := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				worst = d
				seedA, seedB = i, j
			}
		}
	}
	la := entries[seedA].Rect.Clone()
	lb := entries[seedB].Rect.Clone()
	left = append(left, entries[seedA])
	right = append(right, entries[seedB])
	rest := make([]node.Entry, 0, len(entries)-2)
	for i := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, entries[i])
		}
	}
	for len(rest) > 0 {
		// Force-assign when one group must take everything left to reach
		// minFill.
		if len(left)+len(rest) == minFill {
			left = append(left, rest...)
			break
		}
		if len(right)+len(rest) == minFill {
			right = append(right, rest...)
			break
		}
		// PickNext: the entry with maximum |d1 - d2|.
		pick, pickDiff := 0, -1.0
		for i := range rest {
			d1 := la.Enlargement(rest[i].Rect)
			d2 := lb.Enlargement(rest[i].Rect)
			if diff := math.Abs(d1 - d2); diff > pickDiff {
				pick, pickDiff = i, diff
			}
		}
		e := rest[pick]
		rest = append(rest[:pick], rest[pick+1:]...)
		d1, d2 := la.Enlargement(e.Rect), lb.Enlargement(e.Rect)
		switch {
		case d1 < d2, d1 == d2 && la.Area() < lb.Area(), //strlint:ignore floateq exact tie-break on equal enlargement and area, per Guttman
			d1 == d2 && la.Area() == lb.Area() && len(left) <= len(right):
			left = append(left, e)
			la.UnionInPlace(e.Rect)
		default:
			right = append(right, e)
			lb.UnionInPlace(e.Rect)
		}
	}
	return left, right
}

// distribute assigns entries to the groups seeded by seedA and seedB by
// least enlargement, forcing assignment when a group must absorb the rest
// to reach minFill (shared by the linear split).
func distribute(entries []node.Entry, seedA, seedB, minFill int) (left, right []node.Entry) {
	la := entries[seedA].Rect.Clone()
	lb := entries[seedB].Rect.Clone()
	left = append(left, entries[seedA])
	right = append(right, entries[seedB])
	remaining := len(entries) - 2
	for i := range entries {
		if i == seedA || i == seedB {
			continue
		}
		e := entries[i]
		switch {
		case len(left)+remaining == minFill:
			left = append(left, e)
			la.UnionInPlace(e.Rect)
		case len(right)+remaining == minFill:
			right = append(right, e)
			lb.UnionInPlace(e.Rect)
		default:
			d1, d2 := la.Enlargement(e.Rect), lb.Enlargement(e.Rect)
			//strlint:ignore floateq exact tie-break on equal enlargement, per Guttman
			if d1 < d2 || (d1 == d2 && len(left) <= len(right)) {
				left = append(left, e)
				la.UnionInPlace(e.Rect)
			} else {
				right = append(right, e)
				lb.UnionInPlace(e.Rect)
			}
		}
		remaining--
	}
	return left, right
}
