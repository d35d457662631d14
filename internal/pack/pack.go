// Package pack implements the three R-tree packing algorithms the STR
// paper compares — Sort-Tile-Recursive (the paper's contribution),
// Nearest-X [Roussopoulos & Leifker 85] and Hilbert Sort [Kamel &
// Faloutsos 93] — plus two ablation orderings used by the repository's
// extra benchmarks.
//
// Each algorithm is an rtree.Orderer: it permutes the entries of one tree
// level into the sequence in which the builder cuts them into nodes of
// capacity n. Per the paper (Section 2.2) "the three algorithms differ
// only in how the rectangles are ordered at each level"; the surrounding
// bottom-up build is shared and lives in internal/rtree.
//
// All sorting goes through internal/psort: keys are computed once per
// entry and axis, a stable radix sort orders (key, index) pairs, and the
// entries themselves move once, their coordinates with them, when the order
// is final — STR sorts one permutation axis by axis, slab by slab, before it
// moves anything — so what an orderer returns reads sequentially. A
// stable sort has one answer, so every orderer produces byte-for-byte the
// same permutation at any Workers setting.
package pack

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"strtree/internal/hilbert"
	"strtree/internal/node"
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
func (o NX) Order(entries []node.Entry, n, level int) {
	sortByCenter(entries, 0, normWorkers(o.Workers))
}

// YSort orders by the y-coordinate of the centers. It is NX rotated 90
// degrees, included as an ablation control: any difference between NX and
// YSort on a data set measures the set's axis anisotropy, not algorithm
// quality.
type YSort struct {
	// Workers > 1 sorts with that many goroutines; the output is identical
	// for every setting.
	Workers int
}

// Name implements rtree.Orderer.
func (YSort) Name() string { return "Y" }

// Order implements rtree.Orderer.
func (o YSort) Order(entries []node.Entry, n, level int) {
	if len(entries) < 2 {
		return
	}
	sortByCenter(entries, len(entries[0].Rect.Min)-1, normWorkers(o.Workers))
}

func sortByCenter(entries []node.Entry, axis, workers int) {
	psort.ByCenter(entries, axis, workers)
}

func normWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// forEachSlab cuts [0, total) into consecutive slabs of the given size
// (the last one short) and invokes fn for each, running up to workers
// slabs concurrently. Slabs are disjoint, so the concurrent and
// sequential schedules produce identical data.
func forEachSlab(total, slab, workers int, fn func(start, end, idx int)) {
	if workers <= 1 {
		idx := 0
		for start := 0; start < total; start += slab {
			end := start + slab
			if end > total {
				end = total
			}
			fn(start, end, idx)
			idx++
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	idx := 0
	for start := 0; start < total; start += slab {
		end := start + slab
		if end > total {
			end = total
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(start, end, idx int) {
			defer wg.Done()
			fn(start, end, idx)
			<-sem
		}(start, end, idx)
		idx++
	}
	wg.Wait()
}

// HS is the Hilbert-Sort packing order: rectangle centers sorted by their
// distance from the origin along the Hilbert curve. The curve grid is
// fitted to the bounding box of the centers at each level, realizing the
// paper's arbitrarily-fine conceptual grid for float coordinates.
type HS struct {
	// MaxOrder caps the curve order (bits per axis). Zero means the finest
	// order whose index fits in 64 bits (31 for 2-D data).
	MaxOrder int
	// Workers > 1 computes Hilbert keys and sorts with that many
	// goroutines; the output is identical for every setting.
	Workers int
}

// Name implements rtree.Orderer.
func (HS) Name() string { return "HS" }

// Order implements rtree.Orderer.
func (h HS) Order(entries []node.Entry, n, level int) {
	if len(entries) < 2 {
		return
	}
	workers := normWorkers(h.Workers)
	dims := entries[0].Rect.Dim()
	order := 64 / dims
	if order > 31 {
		order = 31
	}
	if h.MaxOrder > 0 && h.MaxOrder < order {
		order = h.MaxOrder
	}
	// Fit the grid to the centers.
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := 0; d < dims; d++ {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	for i := range entries {
		for d := 0; d < dims; d++ {
			c := entries[i].Rect.CenterAxis(d)
			lo[d] = math.Min(lo[d], c)
			hi[d] = math.Max(hi[d], c)
		}
	}
	m, err := hilbert.NewMapper(order, lo, hi)
	if err != nil {
		// Bounds come from the data itself, so this is unreachable for
		// valid entries; fall back to NX rather than corrupt the build.
		sortByCenter(entries, 0, workers)
		return
	}
	keys := make([]uint64, len(entries))
	psort.Chunks(len(entries), workers, func(clo, chi int) {
		center := make([]float64, dims)
		cell := make([]uint32, dims)
		for i := clo; i < chi; i++ {
			for d := 0; d < dims; d++ {
				center[d] = entries[i].Rect.CenterAxis(d)
			}
			m.CellInto(center, cell)
			keys[i] = hilbert.Index(order, cell)
		}
	})
	psort.ByKeys(entries, keys, workers)
}

// STRTiming accumulates the wall time an STR build spends in its two
// ordering phases, for strbench's per-phase breakdown; the two add up to
// the time spent in Order. Counters are atomic so one STRTiming can be
// shared across levels and goroutines.
type STRTiming struct {
	// SortNanos is the time in the dominant first-axis sort.
	SortNanos atomic.Int64
	// TileNanos is the time spent tiling — slab partitioning plus the
	// per-slab sorts on the remaining axes — and in the one move of the
	// entries into the finished order.
	TileNanos atomic.Int64
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
// (psort.Perm), so the recursion runs over index ranges and the entries
// are moved once, after the last axis.
type STR struct {
	// Workers > 1 parallelizes the first-axis sort through the psort
	// kernel and sorts slabs concurrently (the parallel packing the
	// paper's future-work section anticipates). The resulting order is
	// identical for every setting.
	Workers int
	// Timing, when non-nil, accumulates per-phase wall time.
	Timing *STRTiming
}

// Name implements rtree.Orderer.
func (STR) Name() string { return "STR" }

// Order implements rtree.Orderer.
func (s STR) Order(entries []node.Entry, n, level int) {
	if len(entries) < 2 {
		return
	}
	if n < 1 {
		//strlint:ignore panics documented contract: a capacity below 1 is a builder bug, not a data condition
		panic("pack: node capacity < 1")
	}
	dims := entries[0].Rect.Dim()
	t0 := time.Now()
	p := psort.NewPerm(entries)
	p.SortByCenter(0, len(entries), 0, s.workers())
	if s.Timing != nil {
		s.Timing.SortNanos.Add(int64(time.Since(t0)))
	}
	t0 = time.Now()
	if dims > 1 {
		s.tile(p, 0, len(entries), n, 1, dims, s.workers())
	}
	p.Apply(s.workers())
	if s.Timing != nil {
		s.Timing.TileNanos.Add(int64(time.Since(t0)))
	}
}

// tile cuts positions [lo, hi) of p, sorted on axis-1, into the STR slab
// sizes, sorts each slab on axis and recurses on it while axes remain.
// Slab contents are independent after the partitioning sort, so the
// outermost call runs its slabs on up to workers goroutines, everything
// inside a slab sequentially, with output identical to the sequential
// schedule.
func (s STR) tile(p *psort.Perm, lo, hi, n, axis, dims, workers int) {
	rem := dims - axis + 1 // coordinates still to process, this cut's included
	pages := (hi - lo + n - 1) / n
	// Slab size: n * ceil(P^((rem-1)/rem)) consecutive rectangles.
	slab := max(n*ceilPow(pages, float64(rem-1)/float64(rem)), n)
	forEachSlab(hi-lo, slab, workers, func(start, end, _ int) {
		p.SortByCenter(lo+start, lo+end, axis, 1)
		if axis+1 < dims {
			s.tile(p, lo+start, lo+end, n, axis+1, dims, 1)
		}
	})
}

func (s STR) workers() int {
	return normWorkers(s.Workers)
}

// ceilPow returns ceil(p^e) guarded against floating-point error for exact
// powers (e.g. 100^0.5 must be exactly 10, not 11).
func ceilPow(p int, e float64) int {
	return int(math.Ceil(math.Pow(float64(p), e) - 1e-9))
}

// Serpentine is STR with the y-order reversed in every other slice, so the
// packing order snakes through the tiles instead of jumping from the top
// of one slice to the bottom of the next. It is a natural locality
// refinement of STR (in the spirit of the paper's future-work search for
// better orders) and is measured by the ablation benchmarks. Only the 2-D
// case differs from STR; higher dimensions fall back to plain STR.
type Serpentine struct {
	// Workers > 1 parallelizes the x-sort and runs slices concurrently;
	// the output is identical for every setting.
	Workers int
}

// Name implements rtree.Orderer.
func (Serpentine) Name() string { return "STR-serp" }

// Order implements rtree.Orderer.
func (o Serpentine) Order(entries []node.Entry, n, level int) {
	if len(entries) < 2 {
		return
	}
	workers := normWorkers(o.Workers)
	if entries[0].Rect.Dim() != 2 {
		STR{Workers: o.Workers}.Order(entries, n, level)
		return
	}
	sortByCenter(entries, 0, workers)
	p := (len(entries) + n - 1) / n
	slab := n * ceilPow(p, 0.5)
	forEachSlab(len(entries), slab, workers, func(start, end, idx int) {
		part := entries[start:end]
		sortByCenter(part, 1, 1)
		if idx%2 == 1 {
			for i, j := 0, len(part)-1; i < j; i, j = i+1, j-1 {
				part[i], part[j] = part[j], part[i]
			}
		}
	})
}

// SliceFactor scales the number of STR slices by Num/Den, for the ablation
// that checks S = ceil(sqrt(P)) is the right slice count in 2-D. Factor
// 1/1 reproduces STR exactly.
type SliceFactor struct {
	Num, Den int
	// Workers > 1 parallelizes the x-sort and runs slices concurrently;
	// the output is identical for every setting.
	Workers int
}

// Name implements rtree.Orderer.
func (f SliceFactor) Name() string { return "STRx" }

// Order implements rtree.Orderer.
func (f SliceFactor) Order(entries []node.Entry, n, level int) {
	if len(entries) < 2 {
		return
	}
	workers := normWorkers(f.Workers)
	num, den := f.Num, f.Den
	if num < 1 {
		num = 1
	}
	if den < 1 {
		den = 1
	}
	sortByCenter(entries, 0, workers)
	p := (len(entries) + n - 1) / n
	slices := ceilPow(p, 0.5) * num / den
	if slices < 1 {
		slices = 1
	}
	slab := (len(entries) + slices - 1) / slices
	// Round the slab to whole nodes so only the final node per slice can
	// be short.
	slab = ((slab + n - 1) / n) * n
	forEachSlab(len(entries), slab, workers, func(start, end, _ int) {
		sortByCenter(entries[start:end], 1, 1)
	})
}
