package rtree

import (
	"fmt"

	"strtree/internal/node"
)

// BulkLoadOrdered builds the tree bottom-up from a stream of page records
// already in packing order (e.g. a pack.STRStream), which next returns in
// runs of one or more whole records. Only one run of leaves' records plus
// the parent records of the levels above are held in memory — at fan-out
// 100 that is under 2% of the data set — so trees can be packed from
// inputs far larger than RAM. Each run of leaves is packed, written
// included, as soon as its records have arrived, by the packer BulkLoad
// uses, so the tree bytes and the pager calls are BulkLoad's whatever the
// runs next returns; levels above the leaves are ordered by o, exactly as
// in BulkLoad. Each run is checked (checkRun) and copied before next is
// called again, so next may reuse its buffer.
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
		run, ok, err := next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := t.checkRun(run, count); err != nil {
			return err
		}
		count += uint64(len(run) / node.EntrySize(t.dims))
		for len(run) > 0 {
			n := copy(leaves[len(leaves):cap(leaves)], run)
			leaves, run = leaves[:len(leaves)+n], run[n:]
			if len(leaves) == cap(leaves) {
				if parents, err = p.pack(parents, leaves, 0); err != nil {
					return err
				}
				leaves = leaves[:0]
			}
		}
	}
	if len(leaves) > 0 {
		var err error
		if parents, err = p.pack(parents, leaves, 0); err != nil {
			return err
		}
	}
	if count == 0 {
		return t.writeMeta()
	}
	// Upper levels fit in memory (a factor of capacity smaller per level);
	// they go through the in-memory packing path.
	return t.packUp(p, parents, 1, count, o)
}

// checkRun is checkEntry's test on a run of page records, the first of
// which is entry first of the stream: whole records of the tree's size, and
// well-formed rectangles (one node.FirstInvalid over the run). An error
// names the entry at fault.
func (t *Tree) checkRun(run []byte, first uint64) error {
	size := node.EntrySize(t.dims)
	if len(run)%size != 0 {
		return fmt.Errorf("entry %d: rtree: a run of %d bytes from here, not whole records of a %d-D tree's %d bytes", first, len(run), t.dims, size)
	}
	if i := node.FirstInvalid(run, t.dims); i < len(run)/size {
		return fmt.Errorf("entry %d: rtree: invalid rectangle, ref %d: Min > Max or NaN on an axis", first+uint64(i), node.RecordRef(run[i*size:], t.dims))
	}
	return nil
}
