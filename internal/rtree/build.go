package rtree

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/par"
	"strtree/internal/storage"
)

// Orderer is a packing algorithm: it permutes entries into the sequence in
// which they will be cut into nodes of capacity n. The paper's three
// algorithms (NX, HS, STR) differ only in this ordering; the surrounding
// build is identical at every level (Section 2.2, "General Algorithm"), so
// an orderer is not told which level it orders.
type Orderer interface {
	// OrderRecords orders recs, whole page records of dims axes
	// (node.EntrySize(dims) bytes each, per axis the Min then the Max word,
	// then the ref), and returns them in packing order: in a new array or
	// in recs itself, which it may reorder in place. n is the node
	// capacity. It is what the bulk loader calls, on the data entries and
	// on each level's parent records.
	OrderRecords(recs []byte, dims, n int) []byte
	// Order is OrderRecords for entries: it permutes them in place, and
	// afterwards their rectangles live in one slab the call allocated
	// (psort.OrderEntries is the shared adapter); only the values are the
	// caller's. level is passed through for callers that name it; no
	// orderer reads it.
	Order(entries []node.Entry, n int, level int)
	// Name identifies the algorithm in reports ("STR", "HS", "NX", ...).
	Name() string
}

// BuildStats reports where the last bulk load on a Tree spent its time.
type BuildStats struct {
	// Order is the wall time inside Orderer.OrderRecords across all levels.
	Order time.Duration
	// Write is the time spent packing ordered levels into pages — each
	// node's parent record (its MBR and page id), its page image and the
	// pager writes of runs of consecutive pages — summed over the workers
	// that packed them, so with Workers > 1 it can exceed the wall time it
	// took. It never overlaps Order: a level is packed once it is ordered.
	Write time.Duration
	// Pages is the number of node pages written.
	Pages int
	// QueuePeak is always 0: it was the depth of a write-behind queue the
	// loader no longer has, and stays because the benchmark ledger still
	// reports it (rtree.build_queue_peak).
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
// goroutines, into one array of page records, which the orderer sorts and
// the leaf loader (load) packs as one run: its whole chunks of runPages
// nodes where they lie, on Workers goroutines again, each node's MBR written
// into its parent's record and its records copied onto its page
// (node.FillRecords). The resulting tree bytes and the pager calls that
// write them are identical at every worker count, and a build takes no
// buffer frame, reads no page and writes each once.
func (t *Tree) BulkLoadFunc(n int, at func(i int) (geom.Rect, uint64), o Orderer) error {
	if t.height != 0 {
		return ErrNotEmpty
	}
	recs, err := t.encodeRecords(n, at)
	if err != nil {
		return err
	}
	p := &packer{t: t}
	timed(&p.stats.Order, func() error { recs = o.OrderRecords(recs, t.dims, t.capacity); return nil })
	return t.load(p, func() (run []byte, ok bool, err error) {
		run, recs = recs, nil
		return run, run != nil, nil
	}, nil, o)
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
	par.Chunks(n, t.workers, func(lo, hi int) {
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

// load is the one way data entries become leaves, and the General Algorithm
// from there up (packUp). next returns their page records in packing order,
// in runs of whole records, each vetted by check unless it is nil. A run's
// whole chunks of runPages nodes are packed where they lie, in one
// packer.pack call shared by the workers; a ragged tail is copied into the
// chunk the next run tops up. Chunks start at multiples of runPages nodes,
// so the pages and the pager calls do not depend on how next cuts the runs.
func (t *Tree) load(p *packer, next func() ([]byte, bool, error), check func(run []byte, first uint64) error, o Orderer) error {
	var (
		leaves  = make([]byte, 0, runPages*t.capacity*node.EntrySize(t.dims))
		parents []byte
		count   uint64
	)
	for {
		run, ok, err := next()
		if ok && err == nil && check != nil {
			err = check(run, count)
		}
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		count += uint64(len(run) / node.EntrySize(t.dims))
		for len(run) > 0 {
			if whole := len(run) - len(run)%cap(leaves); len(leaves) == 0 && whole > 0 {
				if parents, err = p.pack(parents, run[:whole], 0); err != nil {
					return err
				}
				run = run[whole:]
				continue
			}
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
	parents, err := p.pack(parents, leaves, 0)
	if err != nil {
		return err
	}
	if count == 0 {
		return t.writeMeta()
	}
	return t.packUp(p, parents, count, o)
}

// packUp is the General Algorithm's loop from level 1 to the root, and the
// build's epilogue. recs holds the (MBR, page) records of the leaves. A
// level is packed while more than one node remains below it, and the last
// node standing is the root. count is the number of data entries in the
// tree.
func (t *Tree) packUp(p *packer, recs []byte, count uint64, o Orderer) error {
	level := 1
	for ; len(recs) > node.EntrySize(t.dims); level++ {
		timed(&p.stats.Order, func() error { recs = o.OrderRecords(recs, t.dims, t.capacity); return nil })
		parents, err := p.pack(nil, recs, level)
		if err != nil {
			return err
		}
		recs = parents
	}
	t.root = storage.PageID(node.RecordRef(recs, t.dims))
	t.height = level
	t.count = count
	t.buildStats = p.stats
	return t.Flush()
}

// runPages is how many consecutive nodes make a run, the packer's unit of
// work: one stage of page images (256 KiB of 4 KiB pages) and one
// WritePages call unless recycled page ids break the sequence.
const runPages = 64

// packer packs the levels of one bulk load into pages. It keeps what
// outlives a level: each worker's stage and MBR scratch, the page-id
// scratch and the build's statistics.
type packer struct {
	t      *Tree
	stages [][]byte
	mbrs   []geom.Rect // mbrs[w] is the scratch of stages[w]'s worker
	ids    []storage.PageID
	stats  BuildStats
}

// pack cuts recs, records in packing order, into nodes of t.capacity at
// level, writes the nodes' pages and appends their parent records (MBR,
// page id) to parents. It reserves the level's page ids first, in the order
// a node-by-node build takes them: recycled pages, then fresh ones. Then up
// to t.workers goroutines take runs of runPages nodes in order (par.Each);
// each computes its run's parent records at their fixed offsets and fills
// its pages into its worker's stage, and the runs reach the pager strictly
// in run order, one Pool.WritePages call per stretch of consecutive ids.
// The pager thus sees the same calls, in the same order, at every worker
// count. No run after a failed one reaches the pager, and the failure stays
// in t.writeErr for every later Flush.
func (p *packer) pack(parents, recs []byte, level int) ([]byte, error) {
	t, size := p.t, node.EntrySize(p.t.dims)
	span := t.capacity * size
	nodes := (len(recs) + span - 1) / span
	p.ids = p.ids[:0]
	for range nodes {
		id, _, err := t.reservePage()
		if err != nil {
			return parents, err
		}
		p.ids = append(p.ids, id)
	}
	at := len(parents)
	parents = slices.Grow(parents, nodes*size)[:at+nodes*size]
	out := parents[at:]
	runs := (nodes + runPages - 1) / runPages
	workers := min(t.workers, runs)
	for len(p.stages) < workers {
		p.stages = append(p.stages, make([]byte, runPages*t.pool.Pager().PageSize()))
		p.mbrs = append(p.mbrs, geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)})
	}
	var (
		mu   sync.Mutex
		turn = sync.NewCond(&mu)
		next int // guarded by mu: the run whose turn it is to write
		// failed, the first failure in run order, belongs to the run whose
		// turn it is: it reads and sets it between seeing next reach it and
		// advancing next, so no lock is held across the pager. Every later
		// run returns it too, so it is what par.Each returns.
		failed error
	)
	err := par.Each(runs, workers, func(w, r int) error {
		var spent time.Duration
		lo, hi := r*runPages, min(r*runPages+runPages, nodes)
		ferr := timed(&spent, func() error { return p.fill(p.stages[w], &p.mbrs[w], out, recs, lo, hi, level) })
		mu.Lock()
		for next != r {
			turn.Wait()
		}
		mu.Unlock()
		if failed = cmp.Or(failed, ferr); failed == nil {
			failed = timed(&spent, func() error { return p.write(p.stages[w], p.ids[lo:hi]) })
		}
		err := failed
		mu.Lock()
		next++
		p.stats.Write += spent
		turn.Broadcast()
		mu.Unlock()
		return err
	})
	if err != nil {
		t.writeErr = err
		return parents, err
	}
	p.stats.Pages += nodes
	return parents, nil
}

// fill computes the parent records of nodes lo … hi-1 into out, each node's
// MBR grown in mbr, and their page images into stage, in order.
func (p *packer) fill(stage []byte, mbr *geom.Rect, out, recs []byte, lo, hi, level int) error {
	dims, size := p.t.dims, node.EntrySize(p.t.dims)
	span, page := p.t.capacity*size, len(stage)/runPages
	for i := lo; i < hi; i++ {
		n := recs[i*span : min(i*span+span, len(recs))]
		node.RecordRectInto(n, mbr)
		node.UnionRecords(mbr, n[size:])
		node.PutRecord(out[i*size:], *mbr, uint64(p.ids[i]))
		if err := node.FillRecords(stage[(i-lo)*page:(i-lo+1)*page], level, dims, n); err != nil {
			return err
		}
	}
	return nil
}

// write writes the staged pages of the run with page ids ids, one
// Pool.WritePages call per stretch of consecutive ids.
func (p *packer) write(stage []byte, ids []storage.PageID) error {
	page := len(stage) / runPages
	for lo, hi := 0, 1; lo < len(ids); lo, hi = hi, hi+1 {
		for hi < len(ids) && ids[hi] == ids[hi-1]+1 {
			hi++
		}
		if err := p.t.pool.WritePages(ids[lo], stage[lo*page:hi*page]); err != nil {
			return err
		}
	}
	return nil
}

// timed runs f and adds its wall time to *d.
func timed(d *time.Duration, f func() error) error {
	//strlint:ignore timerand build durations feed BuildStats reporting only; tree shape and page bytes are time-independent
	t0 := time.Now()
	err := f()
	//strlint:ignore timerand build durations feed BuildStats reporting only; tree shape and page bytes are time-independent
	*d += time.Since(t0)
	return err
}
