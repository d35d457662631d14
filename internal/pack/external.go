package pack

import (
	"errors"
	"fmt"

	"strtree/internal/extsort"
	"strtree/internal/node"
	"strtree/internal/psort"
)

// STRExternal performs the STR ordering of k-D page records over external
// merge sorts: STR.tile's recursion, each slab pulled off the live merge of
// the axis before it and sorted when reached. Combined with
// rtree.BulkLoadOrdered this packs a tree from data sets far larger than
// RAM — the preprocessing-over-files setting the paper's packing
// algorithms are meant for.
//
// Memory is bounded by RunSize and Workers, not by the input, phase by
// phase:
//   - The first-axis sort reads the input into runs of RunSize records.
//     An input that fits one run is ordered in memory, by STR's own sorts:
//     it holds that run and 32 B of sort pairs a record, and hands its
//     records on a piece at a time. A larger input holds the run being
//     filled and up to Workers runs being sorted, each with 32 B of sort
//     pairs a record and a sorted copy; its merge then holds two
//     512-record batches a run (the one being merged and the one read
//     next).
//   - Each later axis sorts one slab at a time. A slab that fits one run is
//     merged into one run array, sorted in memory (sort pairs and a sorted
//     copy) and handed on whole; a larger one is sorted as a larger input
//     is. With Workers > 1 the last axis is a pipeline of three slabs: one
//     being merged, one being sorted and the one being read, each with at
//     most RunSize records in memory.
//
// Arrays a sort is done with serve the next one, so a build allocates about
// what its largest phase holds.
type STRExternal struct {
	// RunSize is the maximum number of records one sort run holds in
	// memory. Zero means 1 << 20.
	RunSize int
	// TmpDir hosts the spill files ("" = OS default).
	TmpDir string
	// Workers bounds the goroutines each sort uses to sort and spill runs
	// while its input streams on, and sorts a run that never spills with
	// that many. Above 1, one more goroutine sorts the last axis's next
	// slab and another merges the one after it while the current one is
	// read. < 1 means 1. The emitted order is identical for every setting.
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
	x, recs, err := sorter.Spill(extsort.ByCenter(0), src)
	if err != nil {
		return nil, err
	}
	p := &STRStream{sorter: sorter, n: n, workers: s.Workers}
	if x == nil {
		// The input fit one run: STR.OrderRecords' own sorts order it, and
		// the records move once, a piece at a time, as they are read.
		count := len(recs) / node.EntrySize(dims)
		p.perm = STR{Workers: s.Workers}.perm(recs, dims, n)
		p.inMemory = SortStats{Sorts: tileSorts(count, n, dims), EntriesSorted: uint64(dims * count)}
		return p, nil
	}
	p.levels = make([]level, dims)
	for a := range p.levels {
		p.levels[a].st = new(extsort.Stream) // empty: the first NextRun refills it
	}
	p.setLevel(0, x)
	p.readAhead()
	return p, nil
}

// tileSorts is how many sorts STR makes of count records with rem axes to
// go: this one, then STR.tile's, one per slab on each later axis.
func tileSorts(count, n, rem int) uint64 {
	if rem == 1 {
		return 1
	}
	slab := slabSize(count, n, rem)
	sorts := 1 + uint64(count/slab)*tileSorts(slab, n, rem-1)
	if count%slab > 0 {
		sorts += tileSorts(count%slab, n, rem-1)
	}
	return sorts
}

// STRStream yields page records in STR packing order. An input that fit
// one run is ordered in memory, as STR orders it, and read off its
// permutation; a spilled one is read off the last of the stream's levels:
// levels[a] is sorted on axis a, the whole input at a = 0, else the current
// slab of level a−1, sorted when it is reached.
//
// With workers > 1 each slab of the last level reaches NextRun through two
// stages, each on a goroutine of its own: the read-ahead merges it off the
// levels above, then a sort sorts it. The pipeline holds three slabs: one
// merging, one sorting and the one NextRun reads. A read-ahead alone
// touches the levels above the last while it runs, a sort only its own
// slab, and NextRun only the last level's stream; the hand-overs on merged
// and sorted order them.
type STRStream struct {
	sorter  *extsort.Sorter
	n       int
	workers int
	levels  []level
	merged  chan slab // the running merge's slab; nil when none runs
	sorted  chan slab // the running sort's slab; nil when none runs
	err     error     // the first error of any stage; every later NextRun returns it

	perm     *psort.Perm // the order of an input that fit one run, else nil
	pos      int         // records of perm read so far
	piece    []byte      // the records of perm NextRun returned last
	inMemory SortStats   // the sorts perm took
}

// level is one axis of the recursion.
type level struct {
	st   *extsort.Stream // the current range sorted on the level's axis
	left int             // records of st no slab of the next level has taken yet
	slab int             // the size of the next level's slabs
}

// slab is one refill of a level: the next slab as a sorted stream, or as a
// run still to sort when it fit one; neither once level 0 is spent or on
// error.
type slab struct {
	st  *extsort.Stream
	run []byte
	err error
}

// pieceRecords is how many records NextRun gathers at a time off an
// in-memory order.
const pieceRecords = 1 << 12

// setLevel makes st level a's range, cut below in STR.tile's slab sizes.
func (p *STRStream) setLevel(a int, st *extsort.Stream) {
	p.levels[a] = level{st: st, left: st.Len(), slab: slabSize(st.Len(), p.n, len(p.levels)-a)}
}

// Stats is the cumulative activity of the stream's sorts so far: one for
// the first axis plus one per slab reached on every later axis.
func (p *STRStream) Stats() SortStats {
	st := p.sorter.Stats()
	st.Sorts += p.inMemory.Sorts
	st.EntriesSorted += p.inMemory.EntriesSorted
	return st
}

// NextRun returns the next records in packing order, one or more, false at
// the end: the rest of a slab that was sorted in memory in one piece, else
// a merged batch, else a piece of the in-memory order. They stay valid
// until the next call to NextRun or Close, and no longer. An error of any
// stage sticks: every later call returns it.
func (p *STRStream) NextRun() ([]byte, bool, error) {
	if p.err != nil {
		return nil, false, p.err
	}
	if p.perm != nil {
		hi := min(p.pos+pieceRecords, p.perm.Len())
		p.piece = p.perm.AppendRange(p.piece[:0], p.pos, hi)
		p.pos = hi
		return p.piece, len(p.piece) > 0, nil
	}
	last := len(p.levels) - 1
	for {
		recs, ok, err := p.levels[last].st.NextRun()
		if ok || err != nil {
			p.err = err
			return recs, ok, err
		}
		if p.err = p.levels[last].st.Close(); p.err != nil {
			return nil, false, p.err
		}
		next := p.wait()
		if next.st == nil {
			p.err = next.err
			return nil, false, p.err
		}
		p.setLevel(last, next.st)
	}
}

// readAhead starts merging the last level's next slab off the levels
// above on a goroutine when workers > 1; wait collects it.
func (p *STRStream) readAhead() {
	if p.workers <= 1 {
		return
	}
	merged := make(chan slab, 1)
	p.merged = merged
	go func() { merged <- p.merge(len(p.levels) - 1) }()
}

// sortAhead starts sorting s, a merged slab of the last level, on a
// goroutine of its own; wait collects it.
func (p *STRStream) sortAhead(s slab) {
	sorted := make(chan slab, 1)
	p.sorted = sorted
	go func() { sorted <- p.sort(len(p.levels)-1, s) }()
}

// wait returns the last level's next slab, sorted. With workers > 1 it is
// the running sort's: wait first takes the running merge's slab, starts
// the next merge and this slab's sort, so that the loader packs slab k
// while slab k+1 is sorted and slab k+2 merged, then joins the sort. The first call
// fills the pipeline: it takes two merges before it joins a sort. Without
// a merge or a sort running, the slab is merged and sorted inline.
func (p *STRStream) wait() slab {
	last := len(p.levels) - 1
	for {
		sorting := p.sorted
		p.sorted = nil
		if p.merged != nil {
			next := <-p.merged
			p.merged = nil
			if next.st != nil || next.run != nil {
				p.readAhead()
			}
			p.sortAhead(next)
		}
		switch {
		case sorting != nil:
			return <-sorting
		case p.sorted == nil:
			return p.sort(last, p.merge(last))
		}
	}
}

// merge takes the next slab of level a−1 off its stream into a run, or
// into a spilled sort when it is larger than one run, refilling level a−1
// first if it is spent; nothing once level 0 is spent. It touches only the
// levels above a.
func (p *STRStream) merge(a int) slab {
	if a == 0 {
		return slab{}
	}
	up := &p.levels[a-1]
	if up.left == 0 {
		if err := up.st.Close(); err != nil {
			return slab{err: err}
		}
		next := p.sort(a-1, p.merge(a-1))
		if next.st == nil {
			return next
		}
		p.setLevel(a-1, next.st)
	}
	take := min(up.slab, up.left)
	up.left -= take
	st, run, err := p.sorter.IngestStream(extsort.ByCenter(a), up.st, take)
	return slab{st: st, run: run, err: err}
}

// sort makes a merged slab of level a a stream sorted on axis a: a run is
// sorted in memory, a spilled sort's stream is sorted already. It touches
// no level.
func (p *STRStream) sort(a int, s slab) slab {
	if s.run != nil {
		s.st, s.run = p.sorter.SortLone(extsort.ByCenter(a), s.run), nil
	}
	return s
}

// Close waits for a running merge and sort and closes the slabs they
// made, then releases every level's run files; it may be called at any
// point of the stream, and more than once. No goroutine the stream started
// outlives it.
func (p *STRStream) Close() (err error) {
	for _, ahead := range []chan slab{p.merged, p.sorted} {
		if ahead == nil {
			continue
		}
		next := <-ahead
		err = errors.Join(err, next.err)
		if next.st != nil {
			err = errors.Join(err, next.st.Close())
		}
	}
	p.merged, p.sorted = nil, nil
	for _, lv := range p.levels {
		err = errors.Join(err, lv.st.Close())
	}
	return err
}
