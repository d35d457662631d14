// Package psort is the sort kernel behind every packing order.
//
// The paper's bottom line — "the cost of sorting dominates the cost of the
// packing step" — makes the sort the one phase worth engineering. Every
// order the packers need is an order of uint64 keys computed once per
// entry (a center coordinate mapped to order-preserving bits, or a Hilbert
// index), so the kernel never compares: it is a radix sort over (key,
// entry index) pairs with 8-bit digits. A range too big for cache is split
// once on the top digit on which its keys differ; a range that fits is
// sorted by LSD passes, its eight digit histograms taken in one read and
// no pass spent on a digit on which all keys
// agree. What it sorts is an array of page records — each entry as a page
// stores it, node.EntrySize(k) bytes with no pointer in them — and no record
// moves until the order is final: a Perm sorts the pairs, as often and over
// as many sub-ranges as the caller likes, reading each key by stride off the
// array, and Apply copies each record once into one new array in the final
// order, so what follows a sort (the node MBRs, the page fills) streams.
// Callers that hold node.Entry headers go through OrderEntries, which
// encodes them into records and decodes the result.
//
// Determinism: each digit pass is stable, so the result is the stable sort
// by key — ties stay in the order the pairs had, which for a fresh Perm is
// the entries' own. The stable sort of a sequence is unique, and the
// parallel split keeps it: the c-th chunk of the input is counted and
// scattered at the prefix sum over (digit value, chunk), so equal digits
// land in input order whatever the chunking, and the workers then sort
// whole buckets, disjoint ranges. The kernel's output is therefore
// byte-for-byte identical for every worker count; packed trees built at
// Workers=1 and Workers=64 are the same tree.
package psort

import (
	"math"
	"math/bits"
	"slices"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/par"
)

const (
	// seqMin is the fewest pairs worth a goroutine of their own — below it
	// the handoff costs more than it saves: a sort takes one worker per
	// seqMin pairs.
	seqMin = 4096
	// insertionMax is the range length up to which a stable insertion sort
	// beats eight passes over a 256-bucket histogram: on random keys the two
	// cross near 128, and reversed keys double the insertion sort's cost.
	insertionMax = 64
	// msdMin is the fewest pairs (256 KiB) split on their top digit first: a
	// smaller range stays in cache through all its LSD passes.
	msdMin = 1 << 14
	// digitBits is the radix width: 256 counters per digit stay in L1.
	digitBits = 8
	// digits is the number of digit positions in a key.
	digits = 64 / digitBits
)

// pair carries one precomputed key and the index of the entry it stands
// for.
type pair struct {
	key uint64
	idx int
}

// Float64Key maps a float64 to a uint64 whose unsigned order equals the
// float order (negatives below positives, -Inf first, +Inf last). The two
// zeros share one key, matching float comparison where -0 == +0; NaNs get
// keys at the extremes, giving them a fixed deterministic position where
// comparison-based sorts leave their order unspecified.
func Float64Key(f float64) uint64 {
	//strlint:ignore floateq collapsing -0 onto +0 is the point: the two zeros must share a key
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// Perm is a permutation of an array of page records under construction:
// position i holds the index of the record that will end up there. It starts
// as the identity, is refined by stable sorts of whole or partial ranges, and
// is carried out by Apply. Sorts of disjoint ranges may run concurrently.
type Perm struct {
	recs    []byte
	dims    int
	ps, tmp []pair
	buf     []pair // ps and tmp, kept whole so Reset can reuse them
}

// NewPerm returns the identity permutation of recs, whole page records of
// dims axes (node.EntrySize(dims) bytes each). recs is only read.
func NewPerm(recs []byte, dims int) *Perm {
	p := new(Perm)
	p.Reset(recs, dims)
	return p
}

// Reset makes p the identity permutation of recs, as NewPerm does, in the
// pair arrays p already holds when they are long enough.
func (p *Perm) Reset(recs []byte, dims int) {
	n := len(recs) / node.EntrySize(dims)
	if cap(p.buf) < 2*n {
		p.buf = make([]pair, 2*n)
	}
	buf := p.buf[:2*n]
	for i := range buf[:n] {
		buf[i].idx = i
	}
	p.recs, p.dims, p.ps, p.tmp = recs, dims, buf[:n], buf[n:]
}

// Len returns the number of records permuted.
func (p *Perm) Len() int { return len(p.ps) }

// SortByCenter stably sorts positions [lo, hi) by their records' center
// coordinate along axis. Identical output for every worker count.
func (p *Perm) SortByCenter(lo, hi, axis, workers int) {
	ps := p.ps[lo:hi]
	if workers <= 1 {
		// No closure on this path: a caller's per-slab sorts do not allocate.
		p.keyByCenter(ps, axis)
	} else {
		par.Chunks(len(ps), workers, func(clo, chi int) { p.keyByCenter(ps[clo:chi], axis) })
	}
	sortPairs(ps, p.tmp[lo:hi], false, workers)
}

// keyByCenter keys each pair by its record's centre on axis
// (node.RecordCenter), read by stride off the record array: two words per
// key, no pointer to chase.
func (p *Perm) keyByCenter(ps []pair, axis int) {
	size := node.EntrySize(p.dims)
	for i := range ps {
		ps[i].key = Float64Key(node.RecordCenter(p.recs[ps[i].idx*size:], axis))
	}
}

// Apply carries out the permutation — the one pass in which a sort moves
// records — and returns the records in their new order: in dst's array when
// it holds them all, else in a new one, each record copied whole, the input
// left as it was. dst must not overlap the input.
func (p *Perm) Apply(dst []byte, workers int) []byte {
	out := dst[:0]
	if cap(out) < len(p.recs) {
		out = make([]byte, len(p.recs))
	}
	out = out[:len(p.recs)]
	if workers <= 1 {
		p.gather(out, 0, len(p.ps)) // no closure: a slab's Apply does not allocate
	} else {
		size := node.EntrySize(p.dims)
		par.Chunks(len(p.ps), workers, func(lo, hi int) { p.gather(out[lo*size:], lo, hi) })
	}
	return out
}

// AppendRange appends the records of positions [lo, hi), in their new
// order, to dst: Apply a piece at a time, into a buffer the caller reuses.
func (p *Perm) AppendRange(dst []byte, lo, hi int) []byte {
	size := node.EntrySize(p.dims)
	n := len(dst)
	dst = slices.Grow(dst, (hi-lo)*size)[:n+(hi-lo)*size]
	p.gather(dst[n:], lo, hi)
	return dst
}

// gather copies the records of positions [lo, hi), in order, to the start
// of out. At k = 2 a record is a fixed 40-byte array, so the copy is five
// word moves rather than a call.
func (p *Perm) gather(out []byte, lo, hi int) {
	const size2 = 2*16 + 8 // node.EntrySize(2)
	if p.dims == 2 {
		for i, o := lo, 0; i < hi; i, o = i+1, o+size2 {
			*(*[size2]byte)(out[o:]) = *(*[size2]byte)(p.recs[p.ps[i].idx*size2:])
		}
		return
	}
	size := node.EntrySize(p.dims)
	for i, o := lo, 0; i < hi; i, o = i+1, o+size {
		j := p.ps[i].idx * size
		copy(out[o:o+size], p.recs[j:j+size])
	}
}

// ByKeys returns recs, whole records of dims axes, in ascending order of
// their parallel uint64 keys, ties left in their original order (a stable
// sort by key). recs and keys are only read. Identical output for every
// worker count.
func ByKeys(recs []byte, dims int, keys []uint64, workers int) []byte {
	p := NewPerm(recs, dims)
	if len(keys) != len(p.ps) {
		//strlint:ignore panics documented contract: mismatched key and record slices are a caller bug, not a data condition
		panic("psort: len(keys) != number of records")
	}
	for i := range keys {
		p.ps[i].key = keys[i]
	}
	sortPairs(p.ps, p.tmp, false, workers)
	return p.Apply(nil, workers)
}

// ByCenter permutes entries into ascending order of the center coordinate
// along one axis: the stable sort by center, identical output for every
// worker count. It is OrderEntries around Perm.SortByCenter, except that
// the entries are decoded straight from the permutation, so the records are
// never gathered; their rectangles end up in storage of its own all the
// same.
func ByCenter(entries []node.Entry, axis, workers int) {
	if len(entries) == 0 {
		return
	}
	recs, dims := Encode(entries, workers)
	p := NewPerm(recs, dims)
	p.SortByCenter(0, p.Len(), axis, workers)
	decode(entries, recs, dims, p.ps, workers)
}

// OrderEntries runs a record order over entries: it encodes them as one
// array of page records, passes it to order, which returns the records in
// their new order, and decodes the result back into entries. It is the one
// adapter between the entry form of an order (rtree.Orderer.Order) and the
// record form every order is written in. Afterwards the
// entries' coordinates live in one slab OrderEntries allocated, each Min
// and Max with cap == len, so they share no memory with the rectangles the
// caller built or with each other. All entries must be of one
// dimensionality; a mix panics.
func OrderEntries(entries []node.Entry, workers int, order func(recs []byte, dims int) []byte) {
	if len(entries) == 0 {
		return
	}
	recs, dims := Encode(entries, workers)
	Decode(entries, order(recs, dims), dims, workers)
}

// Encode returns entries as one array of page records and their
// dimensionality, which must be every entry's.
func Encode(entries []node.Entry, workers int) (recs []byte, dims int) {
	if len(entries) == 0 {
		return nil, 0
	}
	dims = entries[0].Rect.Dim()
	size := node.EntrySize(dims)
	recs = make([]byte, len(entries)*size)
	par.Chunks(len(entries), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := entries[i].Rect
			if len(r.Min) != dims || len(r.Max) != dims {
				//strlint:ignore panics documented contract: sorting entries of mixed dimensionality is a caller bug; the loaders reject such input before they sort
				panic("psort: entries of mixed dimensionality")
			}
			node.PutRecord(recs[i*size:], r, entries[i].Ref)
		}
	})
	return recs, dims
}

// Decode overwrites entries with the records of recs, one per entry, their
// coordinates in one new slab: position i's Min and Max are the i-th 2k
// floats (min₀…min_{k−1}, max₀…max_{k−1}), each with cap == len.
func Decode(entries []node.Entry, recs []byte, dims, workers int) {
	decode(entries, recs, dims, nil, workers)
}

// decode is Decode of the records ps names in order, or of recs in order
// when ps is nil.
func decode(entries []node.Entry, recs []byte, dims int, ps []pair, workers int) {
	size, w := node.EntrySize(dims), 2*dims
	coords := make([]float64, w*len(entries))
	par.Chunks(len(entries), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			j := i
			if ps != nil {
				j = ps[i].idx
			}
			rec := recs[j*size : (j+1)*size]
			c := coords[w*i : w*(i+1) : w*(i+1)]
			for d := 0; d < dims; d++ {
				c[d], c[dims+d] = node.RecordWord(rec, 2*d), node.RecordWord(rec, 2*d+1)
			}
			entries[i] = node.Entry{Rect: geom.Rect{Min: c[:dims:dims], Max: c[dims:]}, Ref: node.RecordRef(rec, dims)}
		}
	})
}

// sortPairs stably sorts the pairs of a by key and leaves them in b when
// toB is set, else in a; the other slice, as long, is scratch.
func sortPairs(a, b []pair, toB bool, workers int) {
	if len(a) >= msdMin {
		split(a, b, toB, workers)
		return
	}
	inB := false
	if len(a) <= insertionMax {
		for i := 1; i < len(a); i++ {
			p, j := a[i], i
			for ; j > 0 && a[j-1].key > p.key; j-- {
				a[j] = a[j-1]
			}
			a[j] = p
		}
	} else { // in cache: one scatter per differing digit, a to b and back
		var h [1]histogram // on the stack: a slab sort does not allocate
		differ := tally(&h[0], a, a[0].key)
		src, dst := a, b
		for d := 0; d < digits; d++ {
			if differ>>(d*digitBits)&(1<<digitBits-1) != 0 {
				offsets(h[:], d, len(a))
				scatter(dst, src, d*digitBits, &h[0][d])
				src, dst, inB = dst, src, !inB
			}
		}
	}
	switch {
	case inB && !toB:
		copy(a, b)
	case !inB && toB:
		copy(b, a)
	}
}

// split sorts a range too big for cache: one stable scatter from a into b
// on the most significant digit on which its keys differ, then each of the
// 256 buckets on its own, in b with a as scratch.
func split(a, b []pair, toB bool, workers int) {
	var (
		bound bounds // bucket v is bound[v]:bound[v+1]
		ok    bool   // false when all keys are equal
	)
	if workers = min(workers, len(a)/seqMin); workers > 1 {
		bound, ok = scatterParallel(a, b, workers)
	} else {
		var h [1]histogram // on the stack: the one-worker split does not allocate
		if differ := tally(&h[0], a, a[0].key); differ != 0 {
			d := (63 - bits.LeadingZeros64(differ)) / digitBits
			bound, ok = offsets(h[:], d, len(a)), true
			scatter(b, a, d*digitBits, &h[0][d])
		}
	}
	switch {
	case !ok: // the input order is the stable order
		if toB {
			copy(b, a)
		}
	case workers > 1:
		sortBuckets(a, b, bound, toB, workers)
	default:
		for v := 0; v < 1<<digitBits; v++ {
			sortPairs(b[bound[v]:bound[v+1]], a[bound[v]:bound[v+1]], !toB, 1)
		}
	}
}

// scatterParallel is split's scatter over workers static chunks of a,
// each counted and then scattered concurrently: chunk c keeps its own
// histogram and offsets whichever goroutine takes it.
func scatterParallel(a, b []pair, workers int) (bound bounds, ok bool) {
	hs := make([]histogram, workers)
	diffs := make([]uint64, workers)
	chunk := func(c int) []pair { return a[len(a)*c/workers : len(a)*(c+1)/workers] }
	par.Each(workers, workers, func(_, c int) error { diffs[c] = tally(&hs[c], chunk(c), a[0].key); return nil })
	var differ uint64
	for _, d := range diffs {
		differ |= d
	}
	if differ == 0 {
		return bound, false
	}
	d := (63 - bits.LeadingZeros64(differ)) / digitBits
	bound = offsets(hs, d, len(a))
	par.Each(workers, workers, func(_, c int) error { scatter(b, chunk(c), d*digitBits, &hs[c][d]); return nil })
	return bound, true
}

// sortBuckets sorts split's buckets on workers goroutines, each taking the
// next bucket as it frees up. A bucket of more than 1/workers of the
// pairs would keep one worker busy while the others idle — centres in
// [0, 1) differ in their top digit only below 2⁻¹⁶ — so it goes first, to
// all workers.
func sortBuckets(a, b []pair, bound bounds, toB bool, workers int) {
	big := len(a) / workers
	for v := 0; v < 1<<digitBits; v++ {
		if lo, hi := bound[v], bound[v+1]; hi-lo > big {
			sortPairs(b[lo:hi], a[lo:hi], !toB, workers)
		}
	}
	par.Each(1<<digitBits, workers, func(_, v int) error {
		if lo, hi := bound[v], bound[v+1]; hi-lo <= big {
			sortPairs(b[lo:hi], a[lo:hi], !toB, 1)
		}
		return nil
	})
}

// histogram counts, per digit position, the keys holding each digit value.
type histogram = [digits][1 << digitBits]int

// bounds are the 257 bounds of the 256 runs of a scatter.
type bounds = [1<<digitBits + 1]int

// tally adds src's keys to h, every digit position in one pass, and
// returns the bits on which some key differs from ref.
func tally(h *histogram, src []pair, ref uint64) (differ uint64) {
	for i := range src {
		k := src[i].key
		differ |= k ^ ref
		h[0][uint8(k)]++
		h[1][uint8(k>>8)]++
		h[2][uint8(k>>16)]++
		h[3][uint8(k>>24)]++
		h[4][uint8(k>>32)]++
		h[5][uint8(k>>40)]++
		h[6][uint8(k>>48)]++
		h[7][uint8(k>>56)]++
	}
	return differ
}

// offsets turns the chunks' counts of n keys at digit position d into each
// chunk's first output position per digit value — the prefix sum in (digit
// value, chunk) order, which keeps the scatter stable across chunks — and
// returns the bounds of the digit values' runs.
func offsets(hs []histogram, d, n int) (bound bounds) {
	sum := 0
	for v := 0; v < 1<<digitBits; v++ {
		bound[v] = sum
		for w := range hs {
			c := hs[w][d][v]
			hs[w][d][v] = sum
			sum += c
		}
	}
	bound[1<<digitBits] = n
	return bound
}

// scatter appends each pair of src, in order, to its digit's run in dst.
func scatter(dst, src []pair, shift int, next *[1 << digitBits]int) {
	for i := range src {
		d := uint8(src[i].key >> shift)
		dst[next[d]] = src[i]
		next[d]++
	}
}
