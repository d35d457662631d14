package pack

import (
	"errors"
	"fmt"

	"strtree/internal/extsort"
)

// STRExternal performs the STR ordering of k-D page records without ever
// holding more than RunSize of them in memory: STR.tile's recursion over
// external merge sorts, each slab pulled off the live merge of the axis
// before it. Combined with rtree.BulkLoadOrdered this packs a tree from
// data sets far larger than RAM — the preprocessing-over-files setting the
// paper's packing algorithms are meant for.
type STRExternal struct {
	// RunSize is the maximum number of records held in memory during any
	// sort phase. Zero means 1 << 20.
	RunSize int
	// TmpDir hosts the spill files ("" = OS default).
	TmpDir string
	// Workers bounds the goroutines the external sorts use to overlap run
	// sorting/spilling with input streaming (< 1 means 1). The emitted
	// order is identical for every setting.
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
	p := &STRStream{sorter: sorter, n: n, levels: make([]level, dims)}
	for a := range p.levels {
		p.levels[a].st = new(extsort.Stream) // empty: the first Next refills it
	}
	p.setLevel(0, x)
	return p, nil
}

// STRStream yields page records in STR packing order, off the last of its
// levels: levels[a] is sorted on axis a, the whole input at a = 0, else the
// current slab of level a−1, sorted when it is reached.
type STRStream struct {
	sorter *extsort.Sorter
	n      int
	levels []level
}

// level is one axis of the recursion.
type level struct {
	st   *extsort.Stream // the current range sorted on the level's axis
	left int             // records of st no slab of the next level has taken yet
	slab int             // the size of the next level's slabs
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
		if ok, err := p.refill(last); !ok || err != nil {
			return nil, false, err
		}
	}
}

// refill replaces level a's spent range by the next slab of level a−1,
// refilling that first if it is spent; false once level 0 is spent.
func (p *STRStream) refill(a int) (bool, error) {
	if err := p.levels[a].st.Close(); err != nil || a == 0 {
		return false, err
	}
	up := &p.levels[a-1]
	if up.left == 0 {
		if ok, err := p.refill(a - 1); !ok || err != nil {
			return ok, err
		}
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
	if err != nil {
		return false, err
	}
	p.setLevel(a, st)
	return true, nil
}

// Close releases every level's run files; it may be called at any point of
// the stream, and more than once.
func (p *STRStream) Close() (err error) {
	for _, lv := range p.levels {
		err = errors.Join(err, lv.st.Close())
	}
	return err
}
