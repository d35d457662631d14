package pack

import (
	"errors"
	"fmt"

	"strtree/internal/extsort"
)

// STRExternal performs the STR ordering of k-D page records over external
// merge sorts: STR.tile's recursion, each slab pulled off the live merge of
// the axis before it and sorted when reached. Combined with
// rtree.BulkLoadOrdered this packs a tree from data sets far larger than
// RAM — the preprocessing-over-files setting the paper's packing
// algorithms are meant for.
//
// Memory is bounded by RunSize and Workers, not by the input. A sort holds
// the run it is filling and up to Workers runs being sorted, each of those
// with 32 B of sort pairs a record and a sorted copy; once it has spilled,
// its merge holds up to four 512-record batches a run (one being merged,
// two queued, one being read). Each axis keeps its current range: one that
// fit a single run stays in memory whole, a spilled one costs its merge
// batches. With Workers > 1 the stream holds one slab more: the last
// axis's next slab, sorted on a background goroutine while the current one
// is read, at most RunSize of its records in memory and the rest spilled.
type STRExternal struct {
	// RunSize is the maximum number of records one sort run holds in
	// memory. Zero means 1 << 20.
	RunSize int
	// TmpDir hosts the spill files ("" = OS default).
	TmpDir string
	// Workers bounds the goroutines each sort uses to sort and spill runs
	// while its input streams on, and sorts a run that never spills with
	// that many. Above 1, one more goroutine reads and sorts the next slab
	// of the last axis while the current one is read. < 1 means 1. The
	// emitted order is identical for every setting.
	Workers int
}

// SortStats is extsort.Stats for consumers above the pack layer, which
// report sort behavior without importing extsort.
type SortStats = extsort.Stats

func (s STRExternal) runSize() int {
	if s.RunSize <= 0 {
		return 1 << 20
	}
	return s.RunSize
}

// Open consumes page records of dims axes from src (until it reports false
// or an error) into the first-axis sort and returns them as a stream in STR
// packing order for node capacity n. The stream must be closed.
func (s STRExternal) Open(dims, n int, src func() ([]byte, bool, error)) (*STRStream, error) {
	if n < 1 {
		return nil, fmt.Errorf("pack: node capacity %d < 1", n)
	}
	sorter, err := extsort.NewSorter(dims, s.runSize(), s.TmpDir)
	if err != nil {
		return nil, err
	}
	sorter.Workers = s.Workers
	x, err := sorter.Ingest(extsort.ByCenter(0), src)
	if err != nil {
		return nil, err
	}
	p := &STRStream{sorter: sorter, n: n, workers: s.Workers, levels: make([]level, dims)}
	for a := range p.levels {
		p.levels[a].st = new(extsort.Stream) // empty: the first Next refills it
	}
	p.setLevel(0, x)
	p.readAhead()
	return p, nil
}

// STRStream yields page records in STR packing order, off the last of its
// levels: levels[a] is sorted on axis a, the whole input at a = 0, else the
// current slab of level a−1, sorted when it is reached.
//
// With workers > 1 a read-ahead goroutine refills the last level one slab
// ahead of Next. While it runs it alone touches the levels above the last,
// and Next only the last level's stream; the hand-off over ahead orders
// the two.
type STRStream struct {
	sorter  *extsort.Sorter
	n       int
	workers int
	levels  []level
	ahead   chan slab // the running read-ahead's result; nil when none runs
}

// level is one axis of the recursion.
type level struct {
	st   *extsort.Stream // the current range sorted on the level's axis
	left int             // records of st no slab of the next level has taken yet
	slab int             // the size of the next level's slabs
}

// slab is one refill of the last level: the next slab sorted, or a nil
// stream once level 0 is spent or on error.
type slab struct {
	st  *extsort.Stream
	err error
}

// setLevel makes st level a's range, cut below in STR.tile's slab sizes.
func (p *STRStream) setLevel(a int, st *extsort.Stream) {
	p.levels[a] = level{st: st, left: st.Len(), slab: slabSize(st.Len(), p.n, len(p.levels)-a)}
}

// Stats is the cumulative activity of the stream's sorts so far: one for
// the first axis plus one per slab reached on every later axis.
func (p *STRStream) Stats() SortStats { return p.sorter.Stats() }

// Next returns the next record in packing order, false at the end.
func (p *STRStream) Next() ([]byte, bool, error) {
	last := len(p.levels) - 1
	for {
		if rec, ok, err := p.levels[last].st.Next(); ok || err != nil {
			return rec, ok, err
		}
		if err := p.levels[last].st.Close(); err != nil {
			return nil, false, err
		}
		next := p.wait()
		if next.st == nil {
			return nil, false, next.err
		}
		p.setLevel(last, next.st)
		p.readAhead()
	}
}

// readAhead starts refilling the last level on a goroutine when workers >
// 1; wait collects the slab.
func (p *STRStream) readAhead() {
	if p.workers <= 1 {
		return
	}
	ahead := make(chan slab, 1)
	p.ahead = ahead
	go func() { ahead <- p.refill(len(p.levels) - 1) }()
}

// wait returns the last level's next slab: the running read-ahead's, else
// refilled inline.
func (p *STRStream) wait() slab {
	if p.ahead == nil {
		return p.refill(len(p.levels) - 1)
	}
	next := <-p.ahead
	p.ahead = nil
	return next
}

// refill pulls the next slab of level a−1 and sorts it on axis a,
// refilling level a−1 first if it is spent; a nil stream once level 0 is
// spent. It touches only the levels above a.
func (p *STRStream) refill(a int) slab {
	if a == 0 {
		return slab{}
	}
	up := &p.levels[a-1]
	if up.left == 0 {
		if err := up.st.Close(); err != nil {
			return slab{err: err}
		}
		next := p.refill(a - 1)
		if next.st == nil {
			return next
		}
		p.setLevel(a-1, next.st)
	}
	take := min(up.slab, up.left)
	up.left -= take
	st, err := p.sorter.Ingest(extsort.ByCenter(a), func() ([]byte, bool, error) {
		if take == 0 {
			return nil, false, nil
		}
		take--
		return up.st.Next()
	})
	return slab{st: st, err: err}
}

// Close waits for a running read-ahead and closes the slab it sorted, then
// releases every level's run files; it may be called at any point of the
// stream, and more than once.
func (p *STRStream) Close() (err error) {
	if p.ahead != nil {
		if next := p.wait(); next.st != nil {
			err = next.st.Close()
		} else {
			err = next.err
		}
	}
	for _, lv := range p.levels {
		err = errors.Join(err, lv.st.Close())
	}
	return err
}
