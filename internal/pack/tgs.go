package pack

import (
	"math"
	"sync"

	"strtree/internal/geom"
	"strtree/internal/node"
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
func (t TGS) Order(entries []node.Entry, n, level int) {
	if len(entries) < 2 {
		return
	}
	if n < 1 {
		//strlint:ignore panics documented contract: a capacity below 1 is a builder bug, not a data condition
		panic("pack: node capacity < 1")
	}
	t.split(entries, n, normWorkers(t.Workers))
}

// split recursively partitions entries (destined for ceil(len/n) nodes)
// until each partition fits one node. The two halves are disjoint, so
// they recurse concurrently when workers remain.
func (t TGS) split(entries []node.Entry, n, workers int) {
	if len(entries) <= n {
		return
	}
	// Split points must keep the left side a multiple of the node size so
	// packed nodes stay full.
	cut := t.bestCut(entries, n, workers)
	left, right := entries[:cut], entries[cut:]
	if workers > 1 && len(left) > n && len(right) > n {
		lw := workers / 2
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.split(left, n, lw)
		}()
		t.split(right, n, workers-lw)
		wg.Wait()
		return
	}
	t.split(left, n, workers)
	t.split(right, n, workers)
}

// bestCut reorders entries along the best axis and returns the best
// node-aligned split position.
func (t TGS) bestCut(entries []node.Entry, n, workers int) int {
	dims := entries[0].Rect.Dim()
	nodes := (len(entries) + n - 1) / n
	// Candidate cuts: multiples of n. To bound the O(axes * cuts * N)
	// prefix work we precompute prefix/suffix MBRs per ordering.
	bestAxis, bestCutIdx := 0, 1
	bestCost := math.Inf(1)
	for d := 0; d < dims; d++ {
		sortByCenter(entries, d, workers)
		prefix := prefixMBRs(entries, n)
		suffix := suffixMBRs(entries, n)
		for k := 1; k < nodes; k++ {
			cost := prefix[k-1].Area() + suffix[k].Area()
			if cost < bestCost {
				bestCost = cost
				bestAxis, bestCutIdx = d, k
			}
		}
	}
	if bestAxis != dims-1 {
		// Entries are currently sorted by the last axis examined; restore
		// the winning order.
		sortByCenter(entries, bestAxis, workers)
	}
	return bestCutIdx * n
}

// prefixMBRs returns, for each node-aligned prefix (first k*n entries,
// k = 1..nodes-?), the MBR of that prefix. prefix[i] covers entries
// [0, (i+1)*n).
func prefixMBRs(entries []node.Entry, n int) []geom.Rect {
	nodes := (len(entries) + n - 1) / n
	out := make([]geom.Rect, 0, nodes-1)
	cur := entries[0].Rect.Clone()
	for i := 1; i < len(entries); i++ {
		if i%n == 0 {
			out = append(out, cur.Clone())
		}
		cur.UnionInPlace(entries[i].Rect)
	}
	return out
}

// suffixMBRs returns suffix MBRs aligned the same way: suffix[k] covers
// entries [k*n, len).
func suffixMBRs(entries []node.Entry, n int) []geom.Rect {
	nodes := (len(entries) + n - 1) / n
	out := make([]geom.Rect, nodes)
	cur := entries[len(entries)-1].Rect.Clone()
	next := nodes - 1
	for i := len(entries) - 1; i >= 0; i-- {
		cur.UnionInPlace(entries[i].Rect)
		if i == next*n {
			out[next] = cur.Clone()
			next--
		}
	}
	return out
}
