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
//     is. With Workers > 1 the stream holds one slab more: the last axis's
//     next slab, sorted on a background goroutine while the current one is
//     read.
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
// With workers > 1 a read-ahead goroutine refills the last level one slab
// ahead of NextRun. While it runs it alone touches the levels above the
// last, and NextRun only the last level's stream; the hand-off over ahead
// orders the two.
type STRStream struct {
	sorter  *extsort.Sorter
	n       int
	workers int
	levels  []level
	ahead   chan slab // the running read-ahead's result; nil when none runs

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

// slab is one refill of the last level: the next slab sorted, or a nil
// stream once level 0 is spent or on error.
type slab struct {
	st  *extsort.Stream
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
// until the next call to NextRun or Close, and no longer.
func (p *STRStream) NextRun() ([]byte, bool, error) {
	if p.perm != nil {
		hi := min(p.pos+pieceRecords, p.perm.Len())
		p.piece = p.perm.AppendRange(p.piece[:0], p.pos, hi)
		p.pos = hi
		return p.piece, len(p.piece) > 0, nil
	}
	last := len(p.levels) - 1
	for {
		if recs, ok, err := p.levels[last].st.NextRun(); ok || err != nil {
			return recs, ok, err
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
// 1; wait collects the slab, and with it the goroutine's end.
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
	st, err := p.sorter.IngestStream(extsort.ByCenter(a), up.st, take)
	return slab{st: st, err: err}
}

// Close waits for a running read-ahead and closes the slab it sorted, then
// releases every level's run files; it may be called at any point of the
// stream, and more than once. No goroutine the stream started outlives it.
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
