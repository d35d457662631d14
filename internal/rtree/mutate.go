package rtree

// The dynamic write path. Insert and Delete are each one algorithm in two
// phases. A descent over node.View records the root-to-target path in
// reusable scratch (insert.go's choosePath, delete.go's findLeaf) while
// holding at most one read pin. A bottom-up fix-up then walks that path
// once, child before parent, under write pins: wherever the node has room
// (insert) or stays adequately full (delete) it is patched in place through
// node.MutableView — an entry appended or removed, the followed child's
// rectangle overwritten — and the walk stops at the first ancestor whose
// stored rectangle is already right. Only the node that actually overflows
// (overflow: split or forced reinsertion) or falls under minFill (dissolve)
// has its whole entry set copied off the page, out of the same fetchView the
// descents use. An overflowing node's records are copied as the page holds
// them into scratch the tree keeps (stage, tilesplit.go), cut there and
// written back as whole pages (fillNode: one node.FillRecords under a write
// pin), so a split allocates nothing and builds no node.Entry; a new root is
// written the same way. A dissolved node's entries go onto the heap
// (appendEntries), where its orphans wait. No write path serializes a
// node.Node: MutableView and FillRecords leave exactly the bytes the
// reference serializer would, so which of them touched a page is invisible
// in the file
// (TestMutateGoldenBytes pins the stored bytes, the page allocation order
// and the free-list order).

import (
	"errors"
	"fmt"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// MutateStats counts how dynamic mutations finished: in place, by
// MutableView patches alone, or structurally — the op split a node,
// force-reinserted, dissolved an underfull node, grew or collapsed the
// root, or planted the first root.
type MutateStats struct {
	InPlaceInserts    uint64
	StructuralInserts uint64
	InPlaceDeletes    uint64
	StructuralDeletes uint64
}

// MutateStats returns the tree's mutation counters.
func (t *Tree) MutateStats() MutateStats {
	return MutateStats{
		InPlaceInserts:    t.mutStats.inPlaceInserts.Load(),
		StructuralInserts: t.mutStats.structuralInserts.Load(),
		InPlaceDeletes:    t.mutStats.inPlaceDeletes.Load(),
		StructuralDeletes: t.mutStats.structuralDeletes.Load(),
	}
}

// mutStep is one node on a mutation's root-to-target path.
type mutStep struct {
	id storage.PageID
	// idx is the entry the descent followed out of this node: the chosen
	// child (insert), the child on the way to the match or, on the leaf,
	// the matched entry itself (delete). Unused on an insert's target node.
	idx int
	// count is the node's entry count when the descent saw it. The fix-up
	// touches each path node once, bottom-up, so it is still current when
	// the overflow and minFill decisions read it.
	count int
}

// childFix says what the fix-up must do to the entry a step followed.
type childFix uint8

const (
	fixNone childFix = iota // nothing below: an insert's target node
	fixRect                 // the child's MBR may have moved: store it if it differs
	fixGone                 // the entry is gone: a deleted data entry or a dissolved child
)

// mutScratch lazily sizes the reusable rectangles to the tree's dims.
func (t *Tree) mutScratch() {
	if t.mut.mbr.Dim() != t.dims {
		t.mut.mbr = geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)}
		t.mut.rect = geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)}
		t.mut.sib.Rect = geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)}
	}
}

// patchNode write-pins the node of step s and fixes it up in place: the
// followed entry gets the child's new rectangle *mbr (fixRect, only if it
// differs) or is removed (fixGone), and add, when non-nil, is appended —
// the caller has checked there is room. It reports whether any byte
// changed; if so *mbr now holds this node's own MBR for the next level up
// (left alone when the node emptied: only a root may, and a root's MBR is
// stored nowhere). An unchanged node ends the fix-up: every ancestor's
// stored rectangle is already exact.
func (t *Tree) patchNode(s mutStep, fix childFix, mbr *geom.Rect, add *node.Entry) (changed bool, err error) {
	f, err := t.pool.FetchMut(s.id)
	if err != nil {
		return false, err
	}
	// The descent validated this page moments ago and marked its frame, so
	// viewOf normally builds the view from the header alone; a frame that
	// lost its mark since (evicted and reloaded) is validated in full here.
	v, err := t.viewOf(f, &t.mut.n)
	mv := node.MutableView{View: v}
	if err == nil {
		switch fix {
		case fixRect:
			mv.EntryRectInto(s.idx, &t.mut.rect)
			if changed = !t.mut.rect.Equal(*mbr); changed {
				err = mv.SetEntryRect(s.idx, *mbr)
			}
		case fixGone:
			changed = true
			err = mv.RemoveEntry(s.idx)
		}
	}
	if err == nil && add != nil {
		changed = true
		err = mv.AppendEntry(add.Rect, add.Ref)
	}
	if err == nil && changed && mv.Count() > 0 {
		mv.MBRInto(mbr)
	}
	if err != nil {
		err = fmt.Errorf("rtree: page %d: %w", s.id, err)
	}
	return changed, errors.Join(err, t.pool.ReleaseMut(f))
}
