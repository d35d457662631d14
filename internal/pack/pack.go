// Package pack implements the three R-tree packing algorithms the STR
// paper compares — Sort-Tile-Recursive (the paper's contribution),
// Nearest-X [Roussopoulos & Leifker 85] and Hilbert Sort [Kamel &
// Faloutsos 93] — plus TGS (tgs.go), the same authors' follow-up, which
// wins skewed point data.
//
// Each algorithm is an rtree.Orderer: it permutes the entries of one tree
// level — page records, as the builder holds them — into the sequence in
// which the builder cuts them into nodes of capacity n. Per the paper
// (Section 2.2) "the three algorithms differ only in how the rectangles are
// ordered at each level"; the surrounding bottom-up build is shared and
// lives in internal/rtree.
//
// All sorting goes through internal/psort: keys are computed once per
// record and axis, a stable radix sort orders (key, index) pairs, and the
// records move once, into one new array, when the order is final — STR
// sorts one permutation axis by axis, slab by slab, before it moves
// anything — so what an orderer returns reads sequentially. A stable sort
// has one answer, so every orderer produces byte-for-byte the same
// permutation at any Workers setting. Each orderer's Order, the entry form,
// is its OrderRecords behind psort.OrderEntries.
package pack

import (
	"math"

	"strtree/internal/hilbert"
	"strtree/internal/node"
	"strtree/internal/par"
	"strtree/internal/psort"
)

// NX is the Nearest-X packing order: rectangles sorted by the x-coordinate
// of their centers ("No details are given in the paper so we assume that
// the x-coordinate of the rectangle's center is used"). Cheap to build, but
// it packs long skinny nodes with huge perimeters, which is why the paper
// finds it uncompetitive for region queries.
type NX struct {
	// Workers > 1 sorts with that many goroutines; the output is identical
	// for every setting.
	Workers int
}

// Name implements rtree.Orderer.
func (NX) Name() string { return "NX" }

// Order implements rtree.Orderer.
func (o NX) Order(entries []node.Entry, n, level int) { orderEntries(o, entries, n, o.Workers) }

// OrderRecords implements rtree.Orderer.
func (o NX) OrderRecords(recs []byte, dims, n int) []byte {
	return sortByCenter(recs, dims, 0, normWorkers(o.Workers))
}

// orderEntries is every orderer's Order: its OrderRecords over the entries
// encoded as records, decoded back by psort.OrderEntries.
func orderEntries(o interface {
	OrderRecords(recs []byte, dims, n int) []byte
}, entries []node.Entry, n, workers int) {
	psort.OrderEntries(entries, normWorkers(workers), func(recs []byte, dims int) []byte {
		return o.OrderRecords(recs, dims, n)
	})
}

// sortByCenter returns recs in the stable order of their centres on axis.
func sortByCenter(recs []byte, dims, axis, workers int) []byte {
	p := psort.NewPerm(recs, dims)
	p.SortByCenter(0, p.Len(), axis, workers)
	return p.Apply(nil, workers)
}

func normWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// HS is the Hilbert-Sort packing order: rectangle centers sorted by their
// distance from the origin along the Hilbert curve. The curve grid is
// fitted to the bounding box of the centers at each level and is the finest
// whose index fits in 64 bits (31 bits an axis for 2-D data), realizing the
// paper's arbitrarily-fine conceptual grid for float coordinates.
type HS struct {
	// Workers > 1 computes Hilbert keys and sorts with that many
	// goroutines; the output is identical for every setting.
	Workers int
}

// Name implements rtree.Orderer.
func (HS) Name() string { return "HS" }

// Order implements rtree.Orderer.
func (h HS) Order(entries []node.Entry, n, level int) { orderEntries(h, entries, n, h.Workers) }

// OrderRecords implements rtree.Orderer.
func (h HS) OrderRecords(recs []byte, dims, n int) []byte {
	size := node.EntrySize(dims)
	count := len(recs) / size
	if count < 2 {
		return recs
	}
	workers := normWorkers(h.Workers)
	order := min(64/dims, 31)
	// Fit the grid to the centers.
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := 0; d < dims; d++ {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	for i := 0; i < count; i++ {
		rec := recs[i*size:]
		for d := 0; d < dims; d++ {
			c := node.RecordCenter(rec, d)
			lo[d] = math.Min(lo[d], c)
			hi[d] = math.Max(hi[d], c)
		}
	}
	m, err := hilbert.NewMapper(order, lo, hi)
	if err != nil {
		// Bounds come from the data itself, so this is unreachable for
		// valid entries; fall back to NX rather than corrupt the build.
		return sortByCenter(recs, dims, 0, workers)
	}
	keys := make([]uint64, count)
	par.Chunks(count, workers, func(clo, chi int) {
		center := make([]float64, dims)
		cell := make([]uint32, dims)
		for i := clo; i < chi; i++ {
			rec := recs[i*size:]
			for d := 0; d < dims; d++ {
				center[d] = node.RecordCenter(rec, d)
			}
			m.CellInto(center, cell)
			keys[i] = hilbert.Index(order, cell)
		}
	})
	return psort.ByKeys(recs, dims, keys, workers)
}

// STR is the paper's Sort-Tile-Recursive packing order.
//
// For k = 2 (paper Section 2.2): with P = ceil(r/n) leaf pages, sort the
// rectangles by the x-coordinate of their centers and cut them into
// S = ceil(sqrt(P)) vertical slices of S*n consecutive rectangles; then
// sort each slice by y. The builder's subsequent grouping into runs of n
// realizes the tiling. For k > 2 the first coordinate splits the input
// into S = ceil(P^(1/k)) slabs of n*ceil(P^((k-1)/k)) rectangles, each
// processed recursively as a (k-1)-dimensional data set.
//
// Every sort is a stable sort of a range of one index permutation
// (psort.Perm), so the recursion runs over index ranges and the records
// are moved once, after the last axis.
type STR struct {
	// Workers > 1 parallelizes the first-axis sort through the psort
	// kernel and sorts slabs concurrently (the parallel packing the
	// paper's future-work section anticipates). The resulting order is
	// identical for every setting.
	Workers int
}

// Name implements rtree.Orderer.
func (STR) Name() string { return "STR" }

// Order implements rtree.Orderer.
func (s STR) Order(entries []node.Entry, n, level int) { orderEntries(s, entries, n, s.Workers) }

// OrderRecords implements rtree.Orderer.
func (s STR) OrderRecords(recs []byte, dims, n int) []byte {
	if len(recs) < 2*node.EntrySize(dims) {
		return recs
	}
	return s.perm(recs, dims, n).Apply(nil, s.workers())
}

// perm returns the STR order of recs for node capacity n as a permutation
// not yet applied: the first-axis sort, then the slabs' sorts.
func (s STR) perm(recs []byte, dims, n int) *psort.Perm {
	if n < 1 {
		//strlint:ignore panics documented contract: a capacity below 1 is a builder bug, not a data condition
		panic("pack: node capacity < 1")
	}
	p := psort.NewPerm(recs, dims)
	p.SortByCenter(0, p.Len(), 0, s.workers())
	if dims > 1 {
		s.tile(p, 0, p.Len(), n, 1, dims, s.workers())
	}
	return p
}

// tile cuts positions [lo, hi) of p, sorted on axis-1, into consecutive
// slabs of the STR slab size (the last one short), sorts each slab on axis
// and recurses on it while axes remain. Slabs are disjoint after the
// partitioning sort, so the outermost call runs them on up to workers
// goroutines, everything inside a slab sequentially, with output identical
// to the sequential schedule.
func (s STR) tile(p *psort.Perm, lo, hi, n, axis, dims, workers int) {
	slab := slabSize(hi-lo, n, dims-axis+1)
	par.Each((hi-lo+slab-1)/slab, workers, func(_, i int) error {
		start, end := lo+i*slab, min(lo+i*slab+slab, hi)
		p.SortByCenter(start, end, axis, 1)
		if axis+1 < dims {
			s.tile(p, start, end, n, axis+1, dims, 1)
		}
		return nil
	})
}

// slabSize is how many of count records, sorted on one axis, STR puts in
// each slab it cuts them into when rem axes are still to process, this
// cut's included: n * ceil(P^((rem-1)/rem)) for P = ceil(count/n) pages,
// and at least n.
func slabSize(count, n, rem int) int {
	pages := (count + n - 1) / n
	return max(n*ceilPow(pages, float64(rem-1)/float64(rem)), n)
}

func (s STR) workers() int {
	return normWorkers(s.Workers)
}

// ceilPow returns ceil(p^e) guarded against floating-point error for exact
// powers (e.g. 100^0.5 must be exactly 10, not 11).
func ceilPow(p int, e float64) int {
	return int(math.Ceil(math.Pow(float64(p), e) - 1e-9))
}
