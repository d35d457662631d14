package rtree

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
)

// The overflow policy is the paper's tile cut: sort the overflowing node's
// entries by centre and cut the sequence in the middle, on the axis whose two
// halves have the smaller total margin. Both halves hold at least
// floor((capacity+1)/2) >= MinFill entries, so a fresh node is many deletes
// away from dissolving, where Guttman's seed-and-grow splits leave one half at
// exactly MinFill. It is the only policy: Guttman's splits and the R* split
// are baselines in guttman_test.go and rstar_test.go, and a file whose meta
// page names one of them runs this one.
//
// The cut works on the node as the page stores it. The overflowing node's
// entries are staged as their page records — one copy of the page's entry
// array, then the incoming entry's record — and never become node.Entry
// headers: per axis the centres are read off the records by stride into
// (key, index) pairs, which a counting pass and a merge sort order without a
// comparison closure (sortPairs); the halves' margins and MBRs come from the
// records the sorted pairs name; and each half is written as one
// node.FillRecords — a header, one copy of its records in cut order, one
// CRC. Only pairs and records move, never entries (the reference-sorting of
// Brown, PAPERS.md).

// stage is the dynamic write path's scratch for the one node a mutation
// rewrites whole — an overflowing node, a new root — kept by the tree beside
// the mutation path: the node's records, the order and MBRs the tile cut or
// forced reinsertion needs, and the records to write. Nothing in it outlives
// the page fills of the overflow that filled it, so a warm split allocates
// nothing.
type stage struct {
	recs []byte // the staged records, in entry order
	out  []byte // the records to write, in cut order (split) or entry order (kept by reinsertion)
	// cur is the axis being tried, keep the best so far, tmp the merge
	// sort's scratch; box holds the two halves' MBRs for cur ([0], [1]) and
	// for keep ([2], [3]).
	cur, keep, tmp []tilePair
	box            [4]geom.Rect
	scores         []scored // forced reinsertion's distances
	evict          []bool   // forced reinsertion's verdicts, by entry index
}

// tilePair is one sort key: the order key of a record's centre on the axis
// being tried (psort.Float64Key, 0 for a NaN centre) and the record's index
// in stage.recs. Pairs are sorted, never records.
type tilePair struct {
	key uint64
	idx int32
}

// scored is a record's squared distance from the node's centre, for forced
// reinsertion.
type scored struct {
	idx  int
	dist float64
}

// putRecordRect overwrites the rectangle of the record rec starts with.
func putRecordRect(rec []byte, r geom.Rect) {
	for d := range r.Min {
		binary.LittleEndian.PutUint64(rec[16*d:], math.Float64bits(r.Min[d]))
		binary.LittleEndian.PutUint64(rec[16*d+8:], math.Float64bits(r.Max[d]))
	}
}

// recordEntry decodes the record rec starts with into an entry that owns its
// rectangle: a record that leaves the stage for good (forced reinsertion's
// evictions).
func recordEntry(rec []byte, dims int) node.Entry {
	e := node.Entry{Rect: geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}}
	for d := 0; d < dims; d++ {
		e.Rect.Min[d], e.Rect.Max[d] = node.RecordWord(rec, 2*d), node.RecordWord(rec, 2*d+1)
	}
	e.Ref = node.RecordRef(rec, dims)
	return e
}

// load stages the count records of page, a node page under the caller's pin,
// followed by e's record: e's rectangle may live in scratch the overflow goes
// on to overwrite, so it is copied too.
func (st *stage) load(page []byte, count, dims int, e node.Entry) {
	st.recs = append(st.recs[:0], page[node.HeaderSize:node.HeaderSize+count*node.EntrySize(dims)]...)
	st.recs = node.AppendRecord(st.recs, e.Rect, e.Ref)
}

// scratch sizes the stage's rectangles and pair slices to m records of dims
// axes, allocating only when it grows.
func (st *stage) scratch(m, dims int) {
	if st.box[0].Dim() != dims {
		for i := range st.box {
			st.box[i] = geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
		}
	}
	st.cur = slices.Grow(st.cur[:0], m)[:m]
	st.keep = slices.Grow(st.keep[:0], m)[:m]
	st.tmp = slices.Grow(st.tmp[:0], m)[:m]
}

// splitTile cuts the m staged records into two halves of ceil(m/2) and
// floor(m/2). For each axis the records' centres — Min + (Max-Min)/2, exactly
// geom.Rect.CenterAxis — are keyed and the (key, index) pairs stably sorted:
// equal centres keep entry order, and a NaN centre (a (-Inf, +Inf) side is
// valid) sorts first, as cmp.Compare orders it. The sequence is cut in the
// middle and the axis with the smallest sum of the halves' margins wins, the
// lower axis on a tie. Axis 0 stands until a smaller sum displaces it, so it
// is also the answer when every sum is +Inf or NaN. The halves' records, in
// cut order, alias stage.out; their MBRs are written to lbox and rbox, which
// have dims axes; axis is the winning one.
func (st *stage) splitTile(dims int, lbox, rbox *geom.Rect) (left, right []byte, axis int) {
	size := node.EntrySize(dims)
	m := len(st.recs) / size
	h := (m + 1) / 2
	st.scratch(m, dims)
	best := math.Inf(1)
	for a := 0; a < dims; a++ {
		for i := range st.cur {
			key := uint64(0)
			if c := node.RecordCenter(st.recs[i*size:], a); !math.IsNaN(c) {
				key = psort.Float64Key(c)
			}
			st.cur[i] = tilePair{key: key, idx: int32(i)}
		}
		sortPairs(st.cur, st.tmp)
		sum := st.mbr(st.cur[:h], dims, &st.box[0]) + st.mbr(st.cur[h:], dims, &st.box[1])
		if a == 0 || sum < best {
			st.cur, st.keep = st.keep, st.cur
			st.box[0], st.box[1], st.box[2], st.box[3] = st.box[2], st.box[3], st.box[0], st.box[1]
			axis = a
		}
		if sum < best {
			best = sum
		}
	}
	st.out = st.gather(st.out[:0], st.keep, size)
	copyRect(lbox, st.box[2])
	copyRect(rbox, st.box[3])
	return st.out[:h*size], st.out[h*size:], axis
}

// mbr computes into box the MBR of the records ps names, taken in that order
// the way geom.Rect.UnionInPlace grows one, and returns its margin
// (geom.Rect.Margin, the axes summed in order): the same words, compared and
// added in the same order, as the entries' own MBR, so every margin
// comparison and every stored rectangle repeats bit for bit.
func (st *stage) mbr(ps []tilePair, dims int, box *geom.Rect) float64 {
	size := node.EntrySize(dims)
	rec := st.recs[int(ps[0].idx)*size:]
	for d := 0; d < dims; d++ {
		box.Min[d], box.Max[d] = node.RecordWord(rec, 2*d), node.RecordWord(rec, 2*d+1)
	}
	for _, p := range ps[1:] {
		rec := st.recs[int(p.idx)*size:]
		for d := 0; d < dims; d++ {
			if lo := node.RecordWord(rec, 2*d); lo < box.Min[d] {
				box.Min[d] = lo
			}
			if hi := node.RecordWord(rec, 2*d+1); hi > box.Max[d] {
				box.Max[d] = hi
			}
		}
	}
	return box.Margin()
}

// gather appends to dst the staged records ps names, in that order.
func (st *stage) gather(dst []byte, ps []tilePair, size int) []byte {
	for _, p := range ps {
		i := int(p.idx) * size
		dst = append(dst, st.recs[i:i+size]...)
	}
	return dst
}

// copyRect copies src's coordinates into dst, which has its dimensionality.
func copyRect(dst *geom.Rect, src geom.Rect) {
	copy(dst.Min, src.Min)
	copy(dst.Max, src.Max)
}

// sortPairs stably sorts ps by key, with tmp (as long) as scratch. Since the
// pairs start in index order, the result is the (key, index) order. What a
// comparison sort of a node costs is its mispredicted branches — one for
// about every second comparison on a random order, 3–4 µs for 103 pairs,
// where the comparisons themselves take a fraction of that — so one counting
// pass first spreads the pairs over 256 buckets by their key's offset from
// the least key, which has no data-dependent branch and leaves pairs out of
// order only within a bucket; mergeSortPairs finishes. Bucketing keeps equal
// keys in index order, so the result is stable. Together ≈ 1.4 µs for 103
// pairs in a random order, against ≈ 3.9 µs for the merge sort alone and
// ≈ 5 µs for slices.SortFunc through a closure.
func sortPairs(ps, tmp []tilePair) {
	n := len(ps)
	if n < 2 {
		return
	}
	lo, hi := ps[0].key, ps[0].key
	for _, p := range ps[1:] {
		lo, hi = min(lo, p.key), max(hi, p.key)
	}
	shift := max(bits.Len64(hi-lo)-8, 0) // (k-lo)>>shift < 256
	var next [256]int
	for _, p := range ps {
		next[(p.key-lo)>>shift]++
	}
	sum := 0
	for b, c := range next {
		next[b], sum = sum, sum+c
	}
	for _, p := range ps {
		b := (p.key - lo) >> shift
		tmp[next[b]] = p
		next[b]++
	}
	copy(ps, tmp[:n])
	mergeSortPairs(ps, tmp)
}

// mergeSortPairs is sortPairs' stable finish: insertion sort over runs of 8,
// then bottom-up merges that take from the left run on equal keys and copy
// two runs already in order without comparing further.
func mergeSortPairs(ps, tmp []tilePair) {
	const run = 8
	n := len(ps)
	for lo := 0; lo < n; lo += run {
		r := ps[lo:min(lo+run, n)]
		for i := 1; i < len(r); i++ {
			for j := i; j > 0 && r[j].key < r[j-1].key; j-- {
				r[j], r[j-1] = r[j-1], r[j]
			}
		}
	}
	src, dst := ps, tmp[:n]
	for w := run; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			if mid == hi || src[mid-1].key <= src[mid].key {
				copy(dst[lo:hi], src[lo:hi])
				continue
			}
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if src[j].key < src[i].key {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
}

// evictFarthest is forced reinsertion's choice over the m staged records:
// the count (at least 1) whose centres are farthest from the centre of the
// node's MBR leave, decoded into entries that own their rectangles, in entry
// order; the rest are kept, their records in entry order in stage.out, their
// MBR in box. Distances are computed in entry order and sorted by the same
// comparison as always — pdqsort is not stable, so the order it leaves equal
// distances in, and so the eviction set, depends on both.
func (st *stage) evictFarthest(dims, count int, box *geom.Rect) (evicted []node.Entry, kept []byte) {
	size := node.EntrySize(dims)
	m := len(st.recs) / size
	count = max(count, 1)
	st.scratch(m, dims)
	for i := range st.cur {
		st.cur[i] = tilePair{idx: int32(i)}
	}
	all := &st.box[0]
	st.mbr(st.cur, dims, all)
	st.scores = st.scores[:0]
	for i := 0; i < m; i++ {
		rec := st.recs[i*size:]
		d := 0.0
		for axis := 0; axis < dims; axis++ {
			center := all.Min[axis] + (all.Max[axis]-all.Min[axis])/2
			delta := node.RecordCenter(rec, axis) - center
			d += delta * delta
		}
		st.scores = append(st.scores, scored{idx: i, dist: d})
	}
	slices.SortFunc(st.scores, func(a, b scored) int {
		switch {
		case a.dist > b.dist:
			return -1
		case a.dist < b.dist:
			return 1
		default:
			return 0
		}
	})
	st.evict = append(st.evict[:0], make([]bool, m)...)
	for _, s := range st.scores[:count] {
		st.evict[s.idx] = true
	}
	st.keep = st.keep[:0]
	for i := 0; i < m; i++ {
		if st.evict[i] {
			evicted = append(evicted, recordEntry(st.recs[i*size:], dims))
		} else {
			st.keep = append(st.keep, tilePair{idx: int32(i)})
		}
	}
	st.mbr(st.keep, dims, box)
	st.out = st.gather(st.out[:0], st.keep, size)
	return evicted, st.out
}
