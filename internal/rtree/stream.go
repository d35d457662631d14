package rtree

import (
	"fmt"

	"strtree/internal/node"
)

// BulkLoadOrdered builds the tree bottom-up from a stream of leaf entries
// that are already in packing order (e.g. a pack.STRStream). Only one
// node of leaf entries plus the parent entries of the levels above are
// held in memory — at fan-out 100 that is under 2% of the data set — so
// trees can be packed from inputs far larger than RAM. Levels above the
// leaves are ordered by o, exactly as in BulkLoad. With Workers > 1,
// finished leaves are written behind the stream consumption; the
// resulting tree bytes are identical either way.
//
// Ownership: each entry next yields is placed in its leaf as is and read
// again when the leaf's page is written, so next must not reuse or modify
// the rectangle storage of an entry it has returned.
func (t *Tree) BulkLoadOrdered(next func() (node.Entry, bool, error), o Orderer) (err error) {
	if t.height != 0 {
		return ErrNotEmpty
	}
	w, err := t.newPageWriter()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	var (
		parents []node.Entry
		leaf    []node.Entry
		count   uint64
	)
	for {
		e, ok, rerr := next()
		if rerr != nil {
			return rerr
		}
		if ok {
			if cerr := t.checkEntry(e.Rect); cerr != nil {
				return fmt.Errorf("entry %d: %w", count, cerr)
			}
			leaf = append(leaf, e)
			count++
		}
		if len(leaf) == t.capacity || !ok && len(leaf) > 0 {
			parent, perr := t.emitNode(w, leaf, 0, true)
			if perr != nil {
				return perr
			}
			parents = append(parents, parent)
			leaf = w.recycleOrNew(leaf, t.capacity)
		}
		if !ok {
			break
		}
	}
	if count == 0 {
		return t.writeMeta()
	}
	// Upper levels fit in memory (a factor of capacity smaller per level);
	// they go through the in-memory packing path.
	return t.packUp(w, parents, 1, count, o)
}
