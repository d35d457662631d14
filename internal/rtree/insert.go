package rtree

import (
	"errors"
	"fmt"

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
	st := &t.mut.stage
	st.recs = node.AppendRecord(st.recs[:0], e.Rect, e.Ref)
	if err := t.fillNode(id, 0, st.recs); err != nil {
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
	st := &t.mut.stage
	st.recs = node.AppendRecord(node.AppendRecord(st.recs[:0], *mbr, uint64(t.root)), add.Rect, add.Ref)
	if err := t.fillNode(id, t.height, st.recs); err != nil {
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
			s.idx = v.LeastEnlargement(r)
			id = storage.PageID(v.EntryRef(s.idx))
		}
		t.pool.Release(f)
		path = append(path, s)
	}
	t.mut.path = path
	return path, nil
}

// overflow handles the full node of step s that must still take in e: the
// node's records are staged in the tree's scratch (stage, tilesplit.go) with
// the followed child's rectangle brought up to *mbr and e's record appended,
// then relieved. With forced reinsertion enabled, the first overflow at each
// level of an insertion evicts the 30% of entries farthest from the node
// center for reinsertion instead of splitting (R*-tree OverflowTreatment);
// otherwise the node splits by the tile cut and the new sibling's entry is
// returned for the parent — in scratch too, good until the next overflow.
// *mbr becomes the node's new MBR. Each page written is one fillNode. Pages
// are written child before parent and the sibling page is allocated after the
// node is rewritten: page numbering depends on it.
func (t *Tree) overflow(s mutStep, fix childFix, mbr *geom.Rect, e node.Entry) (*node.Entry, error) {
	f, v, err := t.fetchView(s.id, &t.mut.n)
	if err != nil {
		return nil, err
	}
	st := &t.mut.stage
	level, count := v.Level(), v.Count()
	st.load(f.Data(), count, t.dims, e)
	t.pool.Release(f)
	if fix == fixRect {
		putRecordRect(st.recs[s.idx*node.EntrySize(t.dims):], *mbr)
	}
	if t.reinsert.active && s.id != t.root && !t.reinsert.done[level] {
		if t.reinsert.done == nil {
			t.reinsert.done = make(map[int]bool)
		}
		t.reinsert.done[level] = true
		evicted, kept := st.evictFarthest(t.dims, (count+1)*3/10, mbr)
		for _, ev := range evicted {
			t.reinsert.pending = append(t.reinsert.pending, orphan{level: level, entry: ev})
		}
		return nil, t.fillNode(s.id, level, kept)
	}
	left, right, _ := st.splitTile(t.dims, mbr, &t.mut.sib.Rect)
	if err := t.fillNode(s.id, level, left); err != nil {
		return nil, err
	}
	sibID, err := t.newPage()
	if err != nil {
		return nil, err
	}
	if err := t.fillNode(sibID, level, right); err != nil {
		return nil, err
	}
	t.mut.sib.Ref = uint64(sibID)
	return &t.mut.sib, nil
}

// fillNode write-pins page id — a node on the mutation's path, or one newPage
// just reserved — and makes it a node of the given level holding recs, whole
// entry records in the page layout: one node.FillRecords, a header, one copy
// and one CRC over the frame. The write pin is what a patch takes too
// (patchNode): it fails with buffer.ErrReadPinned while a reader holds the
// page, before a byte changes, and its release marks the frame dirty and
// clears its validation mark. A fill that fails has written nothing.
func (t *Tree) fillNode(id storage.PageID, level int, recs []byte) error {
	f, err := t.pool.FetchMut(id)
	if err != nil {
		return err
	}
	if err = node.FillRecords(f.Data(), level, t.dims, recs); err != nil {
		err = fmt.Errorf("rtree: page %d: %w", id, err)
	}
	return errors.Join(err, t.pool.ReleaseMut(f))
}
