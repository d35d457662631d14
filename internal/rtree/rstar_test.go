package rtree

// The R*-tree's topological split (Beckmann et al.), an Options.Split value
// until PR 26: over six seeds it read 0.8 % fewer accesses per query than the
// tile cut, inside the tile cut's own seed-to-seed range, at three to four
// times the time per insert (EXPERIMENTS.md, "Overflow handling over
// seeds"). Kept here, unchanged, beside Guttman's splits (guttman_test.go)
// as a baseline BenchmarkSplitPolicies and TestRStarBeatsLinearOnOverlap
// hold the tile cut against: choose the split axis by minimum total margin
// over all distributions, then the split index by minimum overlap (ties:
// minimum total area).

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// splitRStar divides an overflowing entry set per the R*-tree split.
func splitRStar(entries []node.Entry, minFill int) (left, right []node.Entry) {
	dims := entries[0].Rect.Dim()
	m := len(entries)
	if minFill < 1 {
		minFill = 1
	}
	maxK := m - minFill // split positions: minFill .. maxK

	// ChooseSplitAxis: for each axis, sort by lower then by upper value
	// and sum the margins of every legal distribution; pick the axis with
	// the smallest sum.
	bestAxis, bestMargin := 0, math.Inf(1)
	for d := 0; d < dims; d++ {
		for _, byUpper := range []bool{false, true} {
			sortAxis(entries, d, byUpper)
			margin := 0.0
			for k := minFill; k <= maxK; k++ {
				margin += geom.MBR(rects(entries[:k])).Margin() +
					geom.MBR(rects(entries[k:])).Margin()
			}
			if margin < bestMargin {
				bestMargin, bestAxis = margin, d
			}
		}
	}

	// ChooseSplitIndex on the chosen axis: minimum overlap, ties by area.
	bestK, bestOverlap, bestArea := minFill, math.Inf(1), math.Inf(1)
	var bestUpper bool
	for _, byUpper := range []bool{false, true} {
		sortAxis(entries, bestAxis, byUpper)
		for k := minFill; k <= maxK; k++ {
			l := geom.MBR(rects(entries[:k]))
			r := geom.MBR(rects(entries[k:]))
			overlap := 0.0
			if inter, ok := l.Intersect(r); ok {
				overlap = inter.Area()
			}
			area := l.Area() + r.Area()
			//strlint:ignore floateq exact tie-break on equal overlap, per Beckmann et al.
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea, bestK, bestUpper = overlap, area, k, byUpper
			}
		}
	}
	sortAxis(entries, bestAxis, bestUpper)
	left = append([]node.Entry(nil), entries[:bestK]...)
	right = append([]node.Entry(nil), entries[bestK:]...)
	return left, right
}

func sortAxis(entries []node.Entry, axis int, byUpper bool) {
	key := func(e node.Entry) float64 {
		if byUpper {
			return e.Rect.Max[axis]
		}
		return e.Rect.Min[axis]
	}
	slices.SortStableFunc(entries, func(a, b node.Entry) int {
		if c := cmp.Compare(key(a), key(b)); c != 0 || byUpper {
			return c
		}
		// Lower-bound ties break on the upper bound, keeping the stable
		// sort deterministic.
		return cmp.Compare(a.Rect.Max[axis], b.Rect.Max[axis])
	})
}

func rects(entries []node.Entry) []geom.Rect {
	out := make([]geom.Rect, len(entries))
	for i := range entries {
		out[i] = entries[i].Rect
	}
	return out
}

func TestSplitRStarRespectsMinFill(t *testing.T) {
	entries := randRects(33, 71)
	left, right := splitRStar(entries, 13)
	if len(left)+len(right) != 33 {
		t.Fatalf("split lost entries: %d + %d", len(left), len(right))
	}
	if len(left) < 13 || len(right) < 13 {
		t.Fatalf("min fill violated: %d / %d", len(left), len(right))
	}
	// No entry duplicated or dropped.
	seen := map[uint64]bool{}
	for _, e := range append(append([]node.Entry(nil), left...), right...) {
		if seen[e.Ref] {
			t.Fatalf("ref %d duplicated", e.Ref)
		}
		seen[e.Ref] = true
	}
}

func TestSplitRStarSeparatesClusters(t *testing.T) {
	// Two well-separated clusters must end up in different groups with
	// zero overlap.
	var entries []node.Entry
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 10; i++ {
		x, y := rng.Float64()*0.1, rng.Float64()*0.1
		entries = append(entries, node.Entry{Rect: geom.R2(x, y, x+0.01, y+0.01), Ref: uint64(i)})
	}
	for i := 10; i < 20; i++ {
		x, y := 0.8+rng.Float64()*0.1, 0.8+rng.Float64()*0.1
		entries = append(entries, node.Entry{Rect: geom.R2(x, y, x+0.01, y+0.01), Ref: uint64(i)})
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	left, right := splitRStar(entries, 5)
	lm := geom.MBR(rects(left))
	rm := geom.MBR(rects(right))
	if lm.Intersects(rm) {
		t.Fatalf("R* split left overlapping groups: %v and %v", lm, rm)
	}
	// Each group holds exactly one cluster.
	for _, e := range left {
		if (e.Ref < 10) != (left[0].Ref < 10) {
			t.Fatal("clusters mixed within the left group")
		}
	}
}

func TestRStarBeatsLinearOnOverlap(t *testing.T) {
	// Over the same overflowing nodes, the halves R* leaves overlap less in
	// total than the linear split's — the baseline is the R* split, not a
	// lookalike — and the tile cut, which never looks at overlap, stays
	// within a fifth of R*'s total area.
	rng := rand.New(rand.NewSource(75))
	var overlapR, overlapL, areaR, areaT float64
	measure := func(left, right []node.Entry) (overlap, area float64) {
		l, r := geom.MBR(rects(left)), geom.MBR(rects(right))
		if inter, ok := l.Intersect(r); ok {
			overlap = inter.Area()
		}
		return overlap, l.Area() + r.Area()
	}
	for trial := 0; trial < 200; trial++ {
		entries := randRects(17, rng.Int63())
		o, a := measure(splitRStar(slices.Clone(entries), 6))
		overlapR, areaR = overlapR+o, areaR+a
		o, _ = measure(splitLinear(slices.Clone(entries), 6))
		overlapL += o
		_, a = measure(tileCut(entries))
		areaT += a
	}
	if overlapR > overlapL {
		t.Fatalf("R* halves overlap %.4f in total, the linear split's %.4f", overlapR, overlapL)
	}
	if areaT > areaR*1.2 {
		t.Fatalf("tile cut leaf area %.4f against R*'s %.4f", areaT, areaR)
	}
}
