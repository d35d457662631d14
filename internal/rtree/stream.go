package rtree

import (
	"fmt"

	"strtree/internal/node"
)

// BulkLoadOrdered builds the tree bottom-up from a stream of page records
// already in packing order (e.g. a pack.STRStream). Only the records of the
// leaves the page writer has not yet written plus the parent records of the
// levels above are held in memory — at fan-out 100 that is under 2% of the
// data set — so trees can be packed from inputs far larger than RAM. Levels
// above the leaves are ordered by o, exactly as in BulkLoad. With Workers >
// 1, finished leaves are written behind the stream consumption; the
// resulting tree bytes are identical either way. Each record is checked
// (checkRecord) and appended to its leaf's before next is called again, so
// next may reuse its buffer.
func (t *Tree) BulkLoadOrdered(next func() ([]byte, bool, error), o Orderer) (err error) {
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
		leafRun = t.capacity * node.EntrySize(t.dims)
		parents []byte
		// buf holds leaves' records, the leaf being filled from start on. A
		// full buf is left to the writer, which may still be reading its
		// leaves, and a new one begun.
		buf   []byte
		start int
		count uint64
	)
	for {
		rec, ok, rerr := next()
		if rerr != nil {
			return rerr
		}
		if ok {
			if cerr := t.checkRecord(rec); cerr != nil {
				return fmt.Errorf("entry %d: %w", count, cerr)
			}
			if len(buf) == cap(buf) {
				buf, start = make([]byte, 0, writeBehindQueue*leafRun), 0
			}
			buf = append(buf, rec...)
			count++
		}
		if leaf := buf[start:]; len(leaf) == leafRun || !ok && len(leaf) > 0 {
			if parents, err = t.emitNode(w, parents, leaf, 0); err != nil {
				return err
			}
			start = len(buf)
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

// checkRecord is checkEntry's test on a page record, read by stride: the
// tree's record size, and a well-formed rectangle (node.RecordValid).
func (t *Tree) checkRecord(rec []byte) error {
	if size := node.EntrySize(t.dims); len(rec) != size {
		return fmt.Errorf("rtree: record of %d bytes, a %d-D tree's are %d", len(rec), t.dims, size)
	}
	if !node.RecordValid(rec, t.dims) {
		return fmt.Errorf("rtree: invalid rectangle, ref %d: Min > Max or NaN on an axis", node.RecordRef(rec, t.dims))
	}
	return nil
}
