package rtree

import (
	"fmt"

	"strtree/internal/node"
)

// BulkLoadOrdered builds the tree bottom-up from a stream of page records
// already in packing order (e.g. a pack.STRStream). Only one run of leaves'
// records plus the parent records of the levels above are held in memory —
// at fan-out 100 that is under 2% of the data set — so trees can be packed
// from inputs far larger than RAM. Each run of leaves is packed, written
// included, as soon as its records have arrived, by the packer BulkLoad
// uses, so the tree bytes and the pager calls are BulkLoad's; levels above
// the leaves are ordered by o, exactly as in BulkLoad. Each record is
// checked (checkRecord) and copied before next is called again, so next
// may reuse its buffer.
func (t *Tree) BulkLoadOrdered(next func() ([]byte, bool, error), o Orderer) error {
	if t.height != 0 {
		return ErrNotEmpty
	}
	var (
		p       = &packer{t: t}
		leaves  = make([]byte, 0, runPages*t.capacity*node.EntrySize(t.dims))
		parents []byte
		count   uint64
	)
	for {
		rec, ok, err := next()
		if err != nil {
			return err
		}
		if ok {
			if err := t.checkRecord(rec); err != nil {
				return fmt.Errorf("entry %d: %w", count, err)
			}
			leaves = append(leaves, rec...)
			count++
		}
		if len(leaves) == cap(leaves) || !ok && len(leaves) > 0 {
			if parents, err = p.pack(parents, leaves, 0); err != nil {
				return err
			}
			leaves = leaves[:0]
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
	return t.packUp(p, parents, 1, count, o)
}

// checkRecord is checkEntry's test on a page record: the tree's record
// size, and a well-formed rectangle (node.FirstInvalid on a run of one).
func (t *Tree) checkRecord(rec []byte) error {
	if size := node.EntrySize(t.dims); len(rec) != size {
		return fmt.Errorf("rtree: record of %d bytes, a %d-D tree's are %d", len(rec), t.dims, size)
	}
	if node.FirstInvalid(rec, t.dims) == 0 {
		return fmt.Errorf("rtree: invalid rectangle, ref %d: Min > Max or NaN on an axis", node.RecordRef(rec, t.dims))
	}
	return nil
}
