package rtree

import (
	"fmt"
	"sync"
	"time"

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
	// Order permutes entries in place. n is the node capacity; level is the
	// tree level being packed (0 = leaf). After Order an entry's rectangle
	// may live in storage the orderer allocated rather than where the
	// caller built it (psort moves the coordinates with the entries, so
	// the packing that follows reads them in order); only the values are
	// the caller's.
	Order(entries []node.Entry, n int, level int)
	// Name identifies the algorithm in reports ("STR", "HS", "NX", ...).
	Name() string
}

// BuildStats reports where the last bulk load on a Tree spent its time.
type BuildStats struct {
	// Order is the wall time inside Orderer.Order across all levels.
	Order time.Duration
	// Write is the cumulative time filling pages: pinning a frame for each
	// (which evicts another page once the pool is full, and writes it back)
	// and serializing the node into it. With Workers > 1 all of that runs
	// behind the packing, so Write overlaps Order instead of adding to the
	// build's wall time.
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
// credits packing for. The tree must be empty. The input slice is permuted
// in place (and see Orderer on where its rectangles then live). The packing
// goroutine validates (on Workers goroutines), orders, reserves page ids and
// computes MBRs; pinning frames, evicting, writing back and serializing are
// the page writer's, which with Workers > 1 is a background goroutine. The
// resulting tree bytes are identical either way, and a build reads no page
// and writes each once.
func (t *Tree) BulkLoad(entries []node.Entry, o Orderer) (err error) {
	if t.height != 0 {
		return ErrNotEmpty
	}
	if err := t.checkEntries(entries); err != nil {
		return err
	}
	if len(entries) == 0 {
		return t.writeMeta()
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
	return t.packUp(w, entries, 0, uint64(len(entries)), o)
}

// checkEntries validates the data entries of a bulk load, split over the
// tree's workers. The error is the lowest-indexed bad entry's, as a
// sequential scan's would be.
func (t *Tree) checkEntries(entries []node.Entry) error {
	var (
		mu    sync.Mutex
		first = len(entries)
		err   error
	)
	psort.Chunks(len(entries), t.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if cerr := t.checkEntry(entries[i].Rect); cerr != nil {
				mu.Lock()
				if i < first {
					first, err = i, fmt.Errorf("entry %d: %w", i, cerr)
				}
				mu.Unlock()
				return
			}
		}
	})
	return err
}

// packUp is the General Algorithm's loop from a given level to the root,
// and the build's epilogue. cur holds the entries destined for nodes at
// level: the data entries for level 0, else the (MBR, page) entries of the
// nodes already written one level down. Data entries always need a node;
// above the leaves a level is packed only while more than one node remains
// below it, and the last node standing is the root. count is the number of
// data entries in the tree.
func (t *Tree) packUp(w *pageWriter, cur []node.Entry, level int, count uint64, o Orderer) error {
	var stats BuildStats
	for level == 0 || len(cur) > 1 {
		t0 := time.Now()
		o.Order(cur, t.capacity, level)
		stats.Order += time.Since(t0)
		parents, err := t.packLevel(w, cur, level)
		if err != nil {
			return err
		}
		cur = parents
		level++
	}
	if err := w.close(); err != nil {
		return err
	}
	t.root = storage.PageID(cur[0].Ref)
	t.height = level
	t.count = count
	stats.Write = w.writeTime()
	stats.Pages = w.pages
	stats.QueuePeak = w.queuePeak
	t.buildStats = stats
	return t.Flush()
}

// packLevel cuts the ordered entries into nodes of capacity t.capacity at
// the given level, emits each through the page writer, and returns the
// parent entries (MBR, page) for the next level up.
func (t *Tree) packLevel(w *pageWriter, entries []node.Entry, level int) ([]node.Entry, error) {
	numNodes := (len(entries) + t.capacity - 1) / t.capacity
	parents := make([]node.Entry, 0, numNodes)
	for start := 0; start < len(entries); start += t.capacity {
		end := min(start+t.capacity, len(entries))
		parent, err := t.emitNode(w, entries[start:end], level, false)
		if err != nil {
			return nil, err
		}
		parents = append(parents, parent)
	}
	return parents, nil
}

// emitNode reserves a page for one finished node, hands the node to the
// page writer and returns its parent entry (MBR, page). Reserving costs no
// I/O and no frame — those are the writer's — so between two sorts the
// packing goroutine only streams the entries for their MBRs. The MBR is
// computed before emitting because emit transfers ownership of the entry
// slice to the (possibly asynchronous) writer, which with recycle set hands
// it back through its free list once the page is written.
func (t *Tree) emitNode(w *pageWriter, entries []node.Entry, level int, recycle bool) (node.Entry, error) {
	n := node.Node{Level: level, Dims: t.dims, Entries: entries}
	id, fresh, err := t.reservePage()
	if err != nil {
		return node.Entry{}, err
	}
	mbr := n.MBR()
	if err := w.emit(pageJob{id: id, fresh: fresh, n: n, recycle: recycle}); err != nil {
		return node.Entry{}, err
	}
	return node.Entry{Rect: mbr, Ref: uint64(id)}, nil
}
