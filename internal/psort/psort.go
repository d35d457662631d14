// Package psort is the sort kernel behind every packing order.
//
// The paper's bottom line — "the cost of sorting dominates the cost of the
// packing step" — makes the sort the one phase worth engineering. Every
// order the packers need is an order of uint64 keys computed once per
// entry (a center coordinate mapped to order-preserving bits, or a Hilbert
// index), so the kernel never compares: it is a least-significant-digit
// radix sort over (key, entry index) pairs, one counting pass and one
// scatter pass per 8-bit digit, skipping every digit on which all keys
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
// parallel pass keeps it: worker w counts and scatters the w-th chunk of
// the input, and the scatter offsets are the prefix sum over (digit value,
// worker), so equal digits land in input order whatever the chunking. The
// kernel's output is therefore byte-for-byte identical for every worker
// count; packed trees built at Workers=1 and Workers=64 are the same tree.
package psort

import (
	"encoding/binary"
	"math"
	"sync"

	"strtree/internal/geom"
	"strtree/internal/node"
)

const (
	// seqMin is the fewest items worth a goroutine of their own — below it
	// the handoff costs more than it saves. Chunks splits nothing smaller,
	// and a sort takes one worker per seqMin pairs.
	seqMin = 4096
	// insertionMax is the range length up to which a stable insertion sort
	// beats eight passes over a 256-bucket histogram: on random keys the two
	// cross near 128, and reversed keys double the insertion sort's cost.
	insertionMax = 64
	// digitBits is the radix width: 256 counters per worker stay in L1.
	digitBits = 8
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
}

// NewPerm returns the identity permutation of recs, whole page records of
// dims axes (node.EntrySize(dims) bytes each). recs is only read.
func NewPerm(recs []byte, dims int) *Perm {
	n := len(recs) / node.EntrySize(dims)
	buf := make([]pair, 2*n)
	for i := range buf[:n] {
		buf[i].idx = i
	}
	return &Perm{recs: recs, dims: dims, ps: buf[:n], tmp: buf[n:]}
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
		Chunks(len(ps), workers, func(clo, chi int) { p.keyByCenter(ps[clo:chi], axis) })
	}
	sortPairs(ps, p.tmp[lo:hi], workers)
}

// keyByCenter keys each pair by its record's centre on axis, Min + (Max −
// Min)/2 as geom.Rect.CenterAxis computes it, read by stride off the record
// array: two words per key, no pointer to chase.
func (p *Perm) keyByCenter(ps []pair, axis int) {
	size, off := node.EntrySize(p.dims), 16*axis
	for i := range ps {
		j := ps[i].idx*size + off
		w := p.recs[j : j+16 : j+16]
		lo := math.Float64frombits(binary.LittleEndian.Uint64(w))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(w[8:]))
		ps[i].key = Float64Key(lo + (hi-lo)/2)
	}
}

// Apply carries out the permutation — the one pass in which a sort moves
// records — and returns the records in their new order: one new array,
// each record copied whole, the input left as it was.
func (p *Perm) Apply(workers int) []byte {
	out := make([]byte, len(p.recs))
	if workers <= 1 {
		p.gather(out, 0, len(p.ps))
	} else {
		Chunks(len(p.ps), workers, func(lo, hi int) { p.gather(out, lo, hi) })
	}
	return out
}

// gather copies the records of positions [lo, hi) into out. At k = 2 a
// record is a fixed 40-byte array, so the copy is five word moves rather
// than a call.
func (p *Perm) gather(out []byte, lo, hi int) {
	const size2 = 2*16 + 8 // node.EntrySize(2)
	if p.dims == 2 {
		for i := lo; i < hi; i++ {
			*(*[size2]byte)(out[i*size2:]) = *(*[size2]byte)(p.recs[p.ps[i].idx*size2:])
		}
		return
	}
	size := node.EntrySize(p.dims)
	for i := lo; i < hi; i++ {
		j := p.ps[i].idx * size
		copy(out[i*size:(i+1)*size], p.recs[j:j+size])
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
	sortPairs(p.ps, p.tmp, workers)
	return p.Apply(workers)
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
	Chunks(len(entries), workers, func(lo, hi int) {
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
	Chunks(len(entries), workers, func(lo, hi int) {
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

// Chunks invokes f over consecutive [lo, hi) ranges covering [0, n),
// concurrently when workers > 1 and n is worth splitting. Exported for
// callers that precompute keys (e.g. the Hilbert packers).
func Chunks(n, workers int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < seqMin {
		f(0, n)
		return
	}
	eachChunk(n, workers, func(_, lo, hi int) { f(lo, hi) })
}

// eachChunk runs f(w, lo, hi) on its own goroutine for each of the workers
// consecutive ranges n*w/workers .. n*(w+1)/workers and waits for them.
func eachChunk(n, workers int, f func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// sortPairs stably sorts ps by key, leaving the result in ps; tmp is
// scratch of the same length.
func sortPairs(ps, tmp []pair, workers int) {
	n := len(ps)
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			p := ps[i]
			j := i
			for ; j > 0 && ps[j-1].key > p.key; j-- {
				ps[j] = ps[j-1]
			}
			ps[j] = p
		}
		return
	}
	// A digit on which every key agrees with the first needs no pass.
	var differ uint64
	for i := range ps {
		differ |= ps[i].key ^ ps[0].key
	}
	// The sequential sort's counters live on its stack; only a parallel
	// sort allocates.
	var seq [1][1 << digitBits]int
	var par [][1 << digitBits]int
	if workers = min(workers, n/seqMin); workers > 1 {
		par = make([][1 << digitBits]int, workers)
	}
	src, dst := ps, tmp
	for shift := 0; shift < 64; shift += digitBits {
		if differ>>shift&(1<<digitBits-1) == 0 {
			continue
		}
		if par == nil {
			count(&seq[0], src, shift)
			offsets(seq[:])
			scatter(dst, src, shift, &seq[0])
		} else {
			parallelPass(dst, src, shift, par)
		}
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
}

// parallelPass is one digit pass split over len(counts) workers, each
// counting and then scattering its own chunk of src.
func parallelPass(dst, src []pair, shift int, counts [][1 << digitBits]int) {
	eachChunk(len(src), len(counts), func(w, lo, hi int) { count(&counts[w], src[lo:hi], shift) })
	offsets(counts)
	eachChunk(len(src), len(counts), func(w, lo, hi int) { scatter(dst, src[lo:hi], shift, &counts[w]) })
}

// count tallies the digit at shift over src.
func count(c *[1 << digitBits]int, src []pair, shift int) {
	*c = [1 << digitBits]int{}
	for i := range src {
		c[uint8(src[i].key>>shift)]++
	}
}

// offsets turns per-worker digit counts into each worker's first output
// position per digit value: the prefix sum in (digit value, worker) order,
// which is what keeps the scatter stable across chunks.
func offsets(counts [][1 << digitBits]int) {
	sum := 0
	for d := 0; d < 1<<digitBits; d++ {
		for w := range counts {
			c := counts[w][d]
			counts[w][d] = sum
			sum += c
		}
	}
}

// scatter appends each pair of src, in order, to its digit's run in dst.
func scatter(dst, src []pair, shift int, next *[1 << digitBits]int) {
	for i := range src {
		d := uint8(src[i].key >> shift)
		dst[next[d]] = src[i]
		next[d]++
	}
}
