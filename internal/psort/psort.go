// Package psort is the sort kernel behind every packing order.
//
// The paper's bottom line — "the cost of sorting dominates the cost of the
// packing step" — makes the sort the one phase worth engineering. Every
// order the packers need is an order of uint64 keys computed once per
// entry (a center coordinate mapped to order-preserving bits, or a Hilbert
// index), so the kernel never compares: it is a least-significant-digit
// radix sort over (key, entry index) pairs, one counting pass and one
// scatter pass per 8-bit digit, skipping every digit on which all keys
// agree. Neither the 56-byte entries nor their coordinates are touched
// until the order is final: a Perm sorts the pairs, as often and over as
// many sub-ranges as the caller likes, and Apply moves each entry once —
// header and coordinates together. An entry is a header of two slices
// pointing at coordinates the caller allocated one rectangle at a time;
// moving only the headers would leave everything downstream of the sort
// (the node MBRs, node.Marshal, an external run's encoder) chasing two
// pointers per entry into memory in the order the data arrived. Apply
// therefore gathers the coordinates into one pointer-free slab laid out in
// the final order, so what follows a sort streams.
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
	"math"
	"sync"

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

// Perm is a permutation of a slice of entries under construction: position
// i holds the index of the entry that will end up there. It starts as the
// identity, is refined by stable sorts of whole or partial ranges, and is
// carried out by Apply. Sorts of disjoint ranges may run concurrently.
type Perm struct {
	entries []node.Entry
	ps, tmp []pair
}

// NewPerm returns the identity permutation of entries.
func NewPerm(entries []node.Entry) *Perm {
	n := len(entries)
	buf := make([]pair, 2*n)
	for i := range buf[:n] {
		buf[i].idx = i
	}
	return &Perm{entries: entries, ps: buf[:n], tmp: buf[n:]}
}

// SortByCenter stably sorts positions [lo, hi) by their entries' center
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

func (p *Perm) keyByCenter(ps []pair, axis int) {
	for i := range ps {
		ps[i].key = Float64Key(p.entries[ps[i].idx].Rect.CenterAxis(axis))
	}
}

// Apply moves the entries into the permuted order — the one pass in which
// a sort touches them — and their coordinates with them: position i's Min
// and Max become the i-th 2k floats (min₀…min_{k−1}, max₀…max_{k−1}) of one
// slab Apply allocates, each with cap == len, so the entries no longer
// share memory with the rectangles they were built over and an append to
// one cannot reach its neighbour. The gather finishes before the first
// header is rewritten, so no copy of the old headers is needed. All entries
// must be of one dimensionality, which every caller has checked by the time
// it sorts (rtree.BulkLoad, extsort's Ingest).
func (p *Perm) Apply(workers int) {
	n := len(p.entries)
	if n == 0 {
		return
	}
	k := p.entries[0].Rect.Dim()
	coords := make([]float64, 2*k*n)
	refs := make([]uint64, n)
	Chunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &p.entries[p.ps[i].idx]
			if len(e.Rect.Min) != k || len(e.Rect.Max) != k {
				//strlint:ignore panics documented contract: sorting entries of mixed dimensionality is a caller bug; the loaders reject such input before they sort
				panic("psort: entries of mixed dimensionality")
			}
			copy(coords[2*k*i:], e.Rect.Min)
			copy(coords[2*k*i+k:], e.Rect.Max)
			refs[i] = e.Ref
		}
	})
	Chunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := coords[2*k*i : 2*k*(i+1) : 2*k*(i+1)]
			e := &p.entries[i]
			e.Rect.Min, e.Rect.Max, e.Ref = c[:k:k], c[k:], refs[i]
		}
	})
}

// ByCenter permutes entries into ascending order of the center coordinate
// along one axis — the ordering every NX, Y and run sort uses. Equivalent
// to a stable sort; identical output for every worker count.
func ByCenter(entries []node.Entry, axis, workers int) {
	p := NewPerm(entries)
	p.SortByCenter(0, len(entries), axis, workers)
	p.Apply(workers)
}

// ByKeys permutes entries into ascending order of their parallel uint64
// keys, ties left in their original order (a stable sort by key). keys is
// only read. Identical output for every worker count.
func ByKeys(entries []node.Entry, keys []uint64, workers int) {
	if len(keys) != len(entries) {
		//strlint:ignore panics documented contract: mismatched key and entry slices are a caller bug, not a data condition
		panic("psort: len(keys) != len(entries)")
	}
	p := NewPerm(entries)
	Chunks(len(keys), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ps[i].key = keys[i]
		}
	})
	sortPairs(p.ps, p.tmp, workers)
	p.Apply(workers)
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
