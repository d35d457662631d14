package pack

import (
	"math"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/par"
)

// TGS is the Top-down Greedy Split bulk-loading order of García, López
// and Leutenegger (CIKM 1998) — the algorithm the STR paper's conclusion
// anticipates ("we plan to continue our search for a better packing
// algorithm"; TGS was that search's result, by two of the same authors).
//
// Where STR tiles bottom-up by sorting, TGS works top-down: to pack a set
// needing more than one node it repeatedly applies the best *binary*
// split — over every axis ordering and every node-aligned split point —
// minimizing the total area of the two resulting MBRs (García et al. also
// examine perimeter; area is their default), then recurses on both halves.
// The result here is expressed as a leaf ordering (the recursion flattened
// left to right), so it plugs into the same General Algorithm builder as the
// other packers; applying it at every level reproduces the top-down
// structure.
type TGS struct {
	// Workers > 1 parallelizes the candidate-cut sorts and recurses on
	// the two halves concurrently; the output is identical for every
	// setting because the halves are disjoint after the cut.
	Workers int
}

// Name implements rtree.Orderer.
func (TGS) Name() string { return "TGS" }

// Order implements rtree.Orderer.
func (t TGS) Order(entries []node.Entry, n, level int) { orderEntries(t, entries, n, level, t.Workers) }

// OrderRecords implements rtree.Orderer. It reorders recs in place and
// returns it.
func (t TGS) OrderRecords(recs []byte, dims, n, level int) []byte {
	if len(recs) < 2*node.EntrySize(dims) {
		return recs
	}
	if n < 1 {
		//strlint:ignore panics documented contract: a capacity below 1 is a builder bug, not a data condition
		panic("pack: node capacity < 1")
	}
	t.split(recs, dims, n, normWorkers(t.Workers))
	return recs
}

// split recursively partitions the records of recs (destined for
// ceil(len/n) nodes) until each partition fits one node. The two halves are
// disjoint, so they recurse concurrently when workers remain.
func (t TGS) split(recs []byte, dims, n, workers int) {
	size := node.EntrySize(dims)
	if len(recs) <= n*size {
		return
	}
	// Split points must keep the left side a multiple of the node size so
	// packed nodes stay full.
	cut := t.bestCut(recs, dims, n, workers) * size
	left, right := recs[:cut], recs[cut:]
	if workers > 1 && len(left) > n*size && len(right) > n*size {
		par.Each(2, 2, func(_, i int) error {
			if i == 0 {
				t.split(left, dims, n, workers/2)
			} else {
				t.split(right, dims, n, workers-workers/2)
			}
			return nil
		})
		return
	}
	t.split(left, dims, n, workers)
	t.split(right, dims, n, workers)
}

// bestCut reorders recs along the best axis and returns the best
// node-aligned split position, in records.
func (t TGS) bestCut(recs []byte, dims, n, workers int) int {
	nodes := (len(recs)/node.EntrySize(dims) + n - 1) / n
	// Candidate cuts: multiples of n. To bound the O(axes * cuts * N)
	// prefix work we precompute prefix/suffix MBRs per ordering.
	bestAxis, bestCutIdx := 0, 1
	bestCost := math.Inf(1)
	for d := 0; d < dims; d++ {
		copy(recs, sortByCenter(recs, dims, d, workers))
		prefix := prefixMBRs(recs, dims, n)
		suffix := suffixMBRs(recs, dims, n)
		for k := 1; k < nodes; k++ {
			cost := prefix[k-1].Area() + suffix[k].Area()
			if cost < bestCost {
				bestCost = cost
				bestAxis, bestCutIdx = d, k
			}
		}
	}
	if bestAxis != dims-1 {
		// The records are currently sorted by the last axis examined;
		// restore the winning order.
		copy(recs, sortByCenter(recs, dims, bestAxis, workers))
	}
	return bestCutIdx * n
}

// prefixMBRs returns, for each node-aligned prefix, the MBR of that prefix:
// prefix[i] covers records [0, (i+1)*n). One running rectangle, seeded with
// the first record, grows over each node's chunk in turn.
func prefixMBRs(recs []byte, dims, n int) []geom.Rect {
	span := n * node.EntrySize(dims)
	out := make([]geom.Rect, 0, (len(recs)+span-1)/span-1)
	cur := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	node.RecordRectInto(recs, &cur)
	for lo := 0; lo+span < len(recs); lo += span {
		node.UnionRecords(&cur, recs[lo:lo+span])
		out = append(out, cur.Clone())
	}
	return out
}

// suffixMBRs returns suffix MBRs aligned the same way: suffix[k] covers
// records [k*n, len). One running rectangle, seeded with the last record,
// grows over each node's chunk in turn from the last. The records are
// valid, and the least and greatest of NaN-free words depend on the order
// only in the sign of a zero, which no cut's cost comparison can see.
func suffixMBRs(recs []byte, dims, n int) []geom.Rect {
	size := node.EntrySize(dims)
	span := n * size
	out := make([]geom.Rect, (len(recs)+span-1)/span)
	cur := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	node.RecordRectInto(recs[len(recs)-size:], &cur)
	for k := len(out) - 1; k >= 0; k-- {
		node.UnionRecords(&cur, recs[k*span:min(k*span+span, len(recs))])
		out[k] = cur.Clone()
	}
	return out
}
