package rtree

import (
	"fmt"

	"strtree/internal/node"
)

// BulkLoadOrdered builds the tree bottom-up from a stream of page records
// already in packing order (e.g. a pack.STRStream), which next returns in
// runs of one or more whole records. Only one run, one chunk of runPages
// leaves' records and the parent records of the levels above are held in
// memory — at fan-out 100 the parents are under 2% of the data set — so
// trees can be packed from inputs far larger than RAM. It is BulkLoad's leaf
// loader (load) behind a check of each run (checkRun), so the tree bytes and
// the pager calls are BulkLoad's whatever the runs next returns; levels
// above the leaves are ordered by o, exactly as in BulkLoad. Each run is
// packed or copied before next is called again, so next may reuse its
// buffer.
func (t *Tree) BulkLoadOrdered(next func() ([]byte, bool, error), o Orderer) error {
	if t.height != 0 {
		return ErrNotEmpty
	}
	return t.load(&packer{t: t}, next, t.checkRun, o)
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
