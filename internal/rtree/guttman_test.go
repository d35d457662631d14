package rtree

// Guttman's linear and quadratic splits, the write path's overflow policies
// until the tile cut displaced them (EXPERIMENTS.md, PR 24): kept here,
// unchanged, as the baselines the tile cut's tests and BenchmarkSplitPolicies
// hold it against. splitLinear is why it was displaced — distribute leaves
// one half at exactly minFill on nine splits in ten, one delete away from
// dissolving (TestLinearSplitLeavesHalfAtMinFill).

import (
	"math"

	"strtree/internal/node"
)

// splitLinear is Guttman's linear split: pick the two seeds with greatest
// normalized separation along any axis, then assign the rest in input
// order to the group needing least enlargement.
func splitLinear(entries []node.Entry, minFill int) (left, right []node.Entry) {
	dims := entries[0].Rect.Dim()
	seedA, seedB := 0, 1
	bestSep := math.Inf(-1)
	for d := 0; d < dims; d++ {
		// Highest low side and lowest high side, plus the axis extent.
		hiLow, loHigh := 0, 0
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range entries {
			r := entries[i].Rect
			if r.Min[d] > entries[hiLow].Rect.Min[d] {
				hiLow = i
			}
			if r.Max[d] < entries[loHigh].Rect.Max[d] {
				loHigh = i
			}
			lo = math.Min(lo, r.Min[d])
			hi = math.Max(hi, r.Max[d])
		}
		if hiLow == loHigh {
			continue
		}
		sep := entries[hiLow].Rect.Min[d] - entries[loHigh].Rect.Max[d]
		if width := hi - lo; width > 0 {
			sep /= width
		}
		if sep > bestSep {
			bestSep = sep
			seedA, seedB = loHigh, hiLow
		}
	}
	return distribute(entries, seedA, seedB, minFill)
}

// splitQuadratic is Guttman's quadratic split: seeds are the pair wasting
// the most area if grouped together; remaining entries are assigned one at
// a time, each time picking the entry with the strongest preference.
func splitQuadratic(entries []node.Entry, minFill int) (left, right []node.Entry) {
	seedA, seedB := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				worst = d
				seedA, seedB = i, j
			}
		}
	}
	la := entries[seedA].Rect.Clone()
	lb := entries[seedB].Rect.Clone()
	left = append(left, entries[seedA])
	right = append(right, entries[seedB])
	rest := make([]node.Entry, 0, len(entries)-2)
	for i := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, entries[i])
		}
	}
	for len(rest) > 0 {
		// Force-assign when one group must take everything left to reach
		// minFill.
		if len(left)+len(rest) == minFill {
			left = append(left, rest...)
			break
		}
		if len(right)+len(rest) == minFill {
			right = append(right, rest...)
			break
		}
		// PickNext: the entry with maximum |d1 - d2|.
		pick, pickDiff := 0, -1.0
		for i := range rest {
			d1 := la.Enlargement(rest[i].Rect)
			d2 := lb.Enlargement(rest[i].Rect)
			if diff := math.Abs(d1 - d2); diff > pickDiff {
				pick, pickDiff = i, diff
			}
		}
		e := rest[pick]
		rest = append(rest[:pick], rest[pick+1:]...)
		d1, d2 := la.Enlargement(e.Rect), lb.Enlargement(e.Rect)
		switch {
		case d1 < d2, d1 == d2 && la.Area() < lb.Area(), //strlint:ignore floateq exact tie-break on equal enlargement and area, per Guttman
			d1 == d2 && la.Area() == lb.Area() && len(left) <= len(right):
			left = append(left, e)
			la.UnionInPlace(e.Rect)
		default:
			right = append(right, e)
			lb.UnionInPlace(e.Rect)
		}
	}
	return left, right
}

// distribute assigns entries to the groups seeded by seedA and seedB by
// least enlargement, forcing assignment when a group must absorb the rest
// to reach minFill (shared by the linear split).
func distribute(entries []node.Entry, seedA, seedB, minFill int) (left, right []node.Entry) {
	la := entries[seedA].Rect.Clone()
	lb := entries[seedB].Rect.Clone()
	left = append(left, entries[seedA])
	right = append(right, entries[seedB])
	remaining := len(entries) - 2
	for i := range entries {
		if i == seedA || i == seedB {
			continue
		}
		e := entries[i]
		switch {
		case len(left)+remaining == minFill:
			left = append(left, e)
			la.UnionInPlace(e.Rect)
		case len(right)+remaining == minFill:
			right = append(right, e)
			lb.UnionInPlace(e.Rect)
		default:
			d1, d2 := la.Enlargement(e.Rect), lb.Enlargement(e.Rect)
			//strlint:ignore floateq exact tie-break on equal enlargement, per Guttman
			if d1 < d2 || (d1 == d2 && len(left) <= len(right)) {
				left = append(left, e)
				la.UnionInPlace(e.Rect)
			} else {
				right = append(right, e)
				lb.UnionInPlace(e.Rect)
			}
		}
		remaining--
	}
	return left, right
}
