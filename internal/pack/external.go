package pack

import (
	"errors"
	"fmt"

	"strtree/internal/extsort"
	"strtree/internal/node"
)

// STRExternal performs the 2-D STR ordering without ever holding more
// than RunSize entries in memory: the x phase is an external merge sort
// fed straight from the source, and each vertical slice is pulled off the
// live x-merge and external-sorted by y as it streams out. Combined with
// rtree.BulkLoadOrdered this lets a tree be packed from data sets far
// larger than RAM — the preprocessing-over-files setting the paper's
// packing algorithms are meant for.
type STRExternal struct {
	// RunSize is the maximum number of entries held in memory during any
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

// Open consumes 2-D entries from src (until it reports false or an error)
// into the x-sort and returns them as a stream in STR packing order for
// node capacity n. The number of entries is the x-sort's count once its
// ingest ends. The stream must be closed.
func (s STRExternal) Open(n int, src func() (node.Entry, bool, error)) (*STRStream, error) {
	if n < 1 {
		return nil, fmt.Errorf("pack: node capacity %d < 1", n)
	}
	sorter, err := extsort.NewSorter(2, s.runSize(), s.TmpDir)
	if err != nil {
		return nil, err
	}
	sorter.Workers = s.Workers
	x, err := sorter.Ingest(extsort.ByCenter(0), src)
	if err != nil {
		return nil, err
	}
	// Slabs of n*ceil(sqrt(P)) entries, as STR.tile cuts them.
	p := (x.Len() + n - 1) / n
	slab := max(n*ceilPow(p, 0.5), n)
	return &STRStream{sorter: sorter, x: x, left: x.Len(), slab: slab}, nil
}

// STRStream yields entries in STR packing order: it cuts the x-sorted
// merge into slabs and external-sorts each by center y as it is reached.
// Entries it returns are the caller's to keep.
type STRStream struct {
	sorter *extsort.Sorter
	x      *extsort.Stream // the whole input by center x
	y      *extsort.Stream // the current slab by center y; nil between slabs
	left   int             // entries of x no slab has taken yet
	slab   int
}

// Stats is the cumulative activity of the stream's sorts so far — one for
// the x phase plus one per y slab reached: how often the RunSize budget
// forced spills, and how much was merged.
func (p *STRStream) Stats() SortStats { return p.sorter.Stats() }

// Next returns the next entry in packing order, false at the end.
func (p *STRStream) Next() (node.Entry, bool, error) {
	for {
		if p.y != nil {
			e, ok, err := p.y.Next()
			if ok || err != nil {
				return e, ok, err
			}
			err = p.y.Close()
			p.y = nil
			if err != nil {
				return node.Entry{}, false, err
			}
		}
		if p.left == 0 {
			return node.Entry{}, false, nil
		}
		take := min(p.slab, p.left)
		p.left -= take
		var err error
		p.y, err = p.sorter.Ingest(extsort.ByCenter(1), func() (node.Entry, bool, error) {
			if take == 0 {
				return node.Entry{}, false, nil
			}
			take--
			return p.x.Next()
		})
		if err != nil {
			return node.Entry{}, false, err
		}
	}
}

// Close releases both sorts' run files; it may be called at any point of
// the stream, and more than once.
func (p *STRStream) Close() error {
	err := p.x.Close()
	if p.y != nil {
		err = errors.Join(err, p.y.Close())
		p.y = nil
	}
	return err
}
