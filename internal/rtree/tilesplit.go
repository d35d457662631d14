package rtree

import (
	"cmp"
	"math"
	"slices"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// The overflow policy is the paper's tile cut: sort the overflowing node's
// entries by centre and cut the sequence in the middle, on the axis whose two
// halves have the smaller total margin. Both halves hold at least
// floor((capacity+1)/2) >= MinFill entries, so a fresh node is many deletes
// away from dissolving, where Guttman's seed-and-grow splits leave one half at
// exactly MinFill. It is the only policy: Guttman's splits and the R* split
// are baselines in guttman_test.go and rstar_test.go, and a file whose meta
// page names one of them runs this one.

// stage is overflow's scratch, kept by the tree beside the mutation path: the
// overflowing node's capacity+1 entries (headers in entries, coordinates in
// coords) and what the tile cut needs to order them. Nothing in it outlives
// the writeNode calls of the overflow that filled it.
type stage struct {
	entries   []node.Entry
	coords    []float64
	cur, keep []tilePair   // the axis being tried, the best so far
	out       []node.Entry // the two halves, in sorted order
	box       geom.Rect
}

// tilePair is one sort key: an entry's centre on the axis being tried and its
// index in stage.entries. Pairs are sorted, never entries.
type tilePair struct {
	center float64
	idx    int32
}

// load stages v's entries followed by e, every rectangle copied into the one
// coordinate slab: e's may live in scratch the overflow goes on to overwrite.
func (st *stage) load(v node.View, e node.Entry) {
	dims, n := v.Dims(), v.Count()
	st.coords = slices.Grow(st.coords[:0], 2*dims*(n+1))
	st.entries, st.coords = appendEntries(st.entries[:0], st.coords, v)
	st.coords = append(append(st.coords, e.Rect.Min...), e.Rect.Max...)
	st.entries = append(st.entries, node.Entry{Rect: slabRect(st.coords, n, dims), Ref: e.Ref})
}

// splitTile cuts the staged entries into two halves of ceil(m/2) and
// floor(m/2). For each axis the (centre, index) pairs are sorted — equal
// centres keep entry order, and cmp.Compare gives a NaN centre (a (-Inf, +Inf)
// side is valid) a fixed place — and cut in the middle; the axis with the
// smallest sum of the halves' margins wins, the lower axis on a tie. Axis 0
// stands until a smaller sum displaces it, so it is also the answer when every
// sum is +Inf or NaN. The halves alias stage.out.
func (st *stage) splitTile() (left, right []node.Entry) {
	m, dims := len(st.entries), st.entries[0].Rect.Dim()
	h := (m + 1) / 2
	if st.box.Dim() != dims {
		st.box = geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	}
	st.cur, st.keep = slices.Grow(st.cur[:0], m)[:m], slices.Grow(st.keep[:0], m)[:m]
	best := math.Inf(1)
	for axis := 0; axis < dims; axis++ {
		for i := range st.entries {
			st.cur[i] = tilePair{center: st.entries[i].Rect.CenterAxis(axis), idx: int32(i)}
		}
		slices.SortFunc(st.cur, func(a, b tilePair) int {
			if c := cmp.Compare(a.center, b.center); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		sum := st.margin(st.cur[:h]) + st.margin(st.cur[h:])
		if axis == 0 || sum < best {
			st.cur, st.keep = st.keep, st.cur
		}
		if sum < best {
			best = sum
		}
	}
	st.out = st.out[:0]
	for _, p := range st.keep {
		st.out = append(st.out, st.entries[p.idx])
	}
	return st.out[:h], st.out[h:]
}

// margin returns the margin of the MBR of the entries half names.
func (st *stage) margin(half []tilePair) float64 {
	copy(st.box.Min, st.entries[half[0].idx].Rect.Min)
	copy(st.box.Max, st.entries[half[0].idx].Rect.Max)
	for _, p := range half[1:] {
		st.box.UnionInPlace(st.entries[p.idx].Rect)
	}
	return st.box.Margin()
}
