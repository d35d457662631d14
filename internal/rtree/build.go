package rtree

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
	"strtree/internal/storage"
)

// Orderer is a packing algorithm: it permutes entries into the sequence in
// which they will be cut into nodes of capacity n. The paper's three
// algorithms (NX, HS, STR) differ only in this ordering; the surrounding
// build is identical (Section 2.2, "General Algorithm"). The level argument
// lets an implementation behave differently above the leaves, though none
// of the paper's algorithms do.
type Orderer interface {
	// OrderRecords orders recs, whole page records of dims axes
	// (node.EntrySize(dims) bytes each, per axis the Min then the Max word,
	// then the ref), and returns them in packing order: in a new array or
	// in recs itself, which it may reorder in place. n is the node
	// capacity; level is the tree level being packed (0 = leaf). It is what
	// the bulk loader calls.
	OrderRecords(recs []byte, dims, n, level int) []byte
	// Order is OrderRecords for entries: it permutes them in place, and
	// afterwards their rectangles live in one slab the call allocated
	// (psort.OrderEntries is the shared adapter); only the values are the
	// caller's.
	Order(entries []node.Entry, n int, level int)
	// Name identifies the algorithm in reports ("STR", "HS", "NX", ...).
	Name() string
}

// BuildStats reports where the last bulk load on a Tree spent its time.
type BuildStats struct {
	// Order is the wall time inside Orderer.OrderRecords across all levels.
	Order time.Duration
	// Write is the cumulative time filling pages — copying each node's
	// records onto its page image — and writing runs of consecutive pages
	// to the pager. With Workers > 1 all of that runs behind the packing,
	// so Write overlaps Order instead of adding to the build's wall time.
	Write time.Duration
	// Pages is the number of node pages written.
	Pages int
	// QueuePeak is the write-behind queue's high-water mark (0 for
	// single-worker builds, which write inline). A peak near the queue
	// capacity means packing outran the writer and was close to blocking
	// on page I/O.
	QueuePeak int
}

// LastBuildStats returns the phase breakdown of the most recent BulkLoad
// or BulkLoadOrdered on this Tree (zero if none ran).
func (t *Tree) LastBuildStats() BuildStats { return t.buildStats }

// BulkLoad builds the tree bottom-up from the given data entries following
// the paper's General Algorithm:
//
//  1. Order the r rectangles into ceil(r/n) consecutive groups of n, each
//     group destined for one leaf (the Orderer's job).
//  2. Load the groups into pages and keep (MBR, page-number) per page.
//  3. Recursively pack these MBRs into nodes at the next level, proceeding
//     upwards, until the root node is created.
//
// Packed nodes are filled to exactly n entries (the last node per level may
// hold fewer), which yields the near-100% space utilization the paper
// credits packing for. The tree must be empty; entries are only read. It is
// BulkLoadFunc over the slice.
func (t *Tree) BulkLoad(entries []node.Entry, o Orderer) error {
	return t.BulkLoadFunc(len(entries), func(i int) (geom.Rect, uint64) { return entries[i].Rect, entries[i].Ref }, o)
}

// BulkLoadFunc is BulkLoad over the n data entries at(0) … at(n-1) returns,
// which it may call concurrently. The build holds one representation from
// here to the page: at's rectangles are validated and encoded, on Workers
// goroutines, into one array of page records, which the orderer sorts, the
// packing cuts into nodes (writing each node's MBR into its parent's record)
// and the page writer copies onto pages (node.FillRecords). The packing
// goroutine orders, reserves page ids and computes MBRs; filling pages and
// writing runs of consecutive ones are the page writer's, which with
// Workers > 1 is a background goroutine. The resulting tree bytes are
// identical either way, and a build takes no buffer frame, reads no page
// and writes each once.
func (t *Tree) BulkLoadFunc(n int, at func(i int) (geom.Rect, uint64), o Orderer) (err error) {
	if t.height != 0 {
		return ErrNotEmpty
	}
	recs, err := t.encodeRecords(n, at)
	if err != nil {
		return err
	}
	if n == 0 {
		return t.writeMeta()
	}
	w := t.newPageWriter()
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	return t.packUp(w, recs, 0, uint64(n), o)
}

// encodeRecords validates the n data entries at returns, as Insert would,
// and encodes them into one array of page records, split over the tree's
// workers. The error is the lowest-indexed bad entry's, as a sequential
// scan's would be.
func (t *Tree) encodeRecords(n int, at func(i int) (geom.Rect, uint64)) ([]byte, error) {
	var (
		size  = node.EntrySize(t.dims)
		recs  = make([]byte, n*size)
		mu    sync.Mutex
		first = n
		err   error
	)
	psort.Chunks(n, t.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r, ref := at(i)
			if cerr := t.checkEntry(r); cerr != nil {
				mu.Lock()
				if i < first {
					first, err = i, fmt.Errorf("entry %d: %w", i, cerr)
				}
				mu.Unlock()
				return
			}
			node.PutRecord(recs[i*size:], r, ref)
		}
	})
	return recs, err
}

// packUp is the General Algorithm's loop from a given level to the root,
// and the build's epilogue. recs holds the records destined for nodes at
// level: the data entries for level 0, else the (MBR, page) records of the
// nodes already written one level down. Data entries always need a node;
// above the leaves a level is packed only while more than one node remains
// below it, and the last node standing is the root. count is the number of
// data entries in the tree.
func (t *Tree) packUp(w *pageWriter, recs []byte, level int, count uint64, o Orderer) error {
	var stats BuildStats
	size := node.EntrySize(t.dims)
	for level == 0 || len(recs) > size {
		//strlint:ignore timerand build duration feeds BuildStats reporting only; tree shape and page bytes are time-independent
		t0 := time.Now()
		recs = o.OrderRecords(recs, t.dims, t.capacity, level)
		//strlint:ignore timerand build duration feeds BuildStats reporting only; tree shape and page bytes are time-independent
		stats.Order += time.Since(t0)
		parents, err := t.packLevel(w, recs, level)
		if err != nil {
			return err
		}
		recs = parents
		level++
	}
	if err := w.close(); err != nil {
		return err
	}
	t.root = storage.PageID(node.RecordRef(recs, t.dims))
	t.height = level
	t.count = count
	stats.Write = w.writeTime()
	stats.Pages = w.pages
	stats.QueuePeak = w.queuePeak
	t.buildStats = stats
	return t.Flush()
}

// packLevel cuts the ordered records into nodes of capacity t.capacity at
// the given level, emits each through the page writer, and returns the
// parent records (MBR, page) for the next level up. The page writer only
// reads the runs it is handed, and nothing writes recs again, so a run
// needs no copy however far the writer lags.
func (t *Tree) packLevel(w *pageWriter, recs []byte, level int) ([]byte, error) {
	run := t.capacity * node.EntrySize(t.dims)
	parents := make([]byte, 0, (len(recs)+run-1)/run*node.EntrySize(t.dims))
	for start := 0; start < len(recs); start += run {
		var err error
		if parents, err = t.emitNode(w, parents, recs[start:min(start+run, len(recs))], level); err != nil {
			return nil, err
		}
	}
	return parents, nil
}

// emitNode reserves a page for one finished node, the records recs, hands
// it to the page writer and appends the node's parent record (MBR, page) to
// parents. Reserving costs no I/O and no frame — those are the writer's —
// so between two sorts the packing goroutine only streams the records for
// their MBRs.
func (t *Tree) emitNode(w *pageWriter, parents, recs []byte, level int) ([]byte, error) {
	id, _, err := t.reservePage()
	if err != nil {
		return parents, err
	}
	if err := w.emit(pageJob{id: id, level: level, recs: recs}); err != nil {
		return parents, err
	}
	return appendMBR(parents, recs, t.dims, uint64(id)), nil
}

// appendMBR appends to dst the record (MBR of recs, ref): per axis the
// least Min and the greatest Max, read by stride and compared in record
// order as geom.Rect.UnionInPlace grows a clone of the first rectangle, so
// the stored words are exactly those of that MBR.
func appendMBR(dst, recs []byte, dims int, ref uint64) []byte {
	size := node.EntrySize(dims)
	at := len(dst)
	dst = append(dst, recs[:size]...)
	mbr := dst[at : at+size]
	for rec := recs[size:]; len(rec) >= size; rec = rec[size:] {
		for w := 0; w < 2*dims; w += 2 {
			if lo := node.RecordWord(rec, w); lo < node.RecordWord(mbr, w) {
				copy(mbr[8*w:8*w+8], rec[8*w:])
			}
			if hi := node.RecordWord(rec, w+1); hi > node.RecordWord(mbr, w+1) {
				copy(mbr[8*w+8:8*w+16], rec[8*w+8:])
			}
		}
	}
	binary.LittleEndian.PutUint64(mbr[16*dims:], ref)
	return dst
}
