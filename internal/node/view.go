package node

// View is the zero-copy counterpart of Unmarshal: a read-only window over
// the serialized bytes of one page that decodes fields on demand instead
// of materializing Node.Entries on the heap. The query read path iterates
// Views over buffer-pinned pages, so a traversal touches exactly the
// float64 words its predicate needs and allocates nothing per page.
//
// Page kernels: a traversal reads a visited page with one call that walks
// the whole entry array — AppendIntersecting (which entries meet a window),
// AppendMatches (the same test, banking each match's coordinates and ref as
// it is found: the leaf arm of a search), AppendMinDist (every entry's
// distance to a point: nearest-neighbour search), LeastEnlargement (an
// insert's descent) and MBRInto (the page's MBR, by UnionRecords). MakeView's
// rectangle check is FirstInvalid, which FillRecords (node.go) also runs on
// the records it is about to write. Each kernel is two loops: a k = 2 arm
// that loads its argument once and walks the entries by a constant stride
// with no bounds check in the loop, and one strided walk over the record
// array, an inner loop over the axes, for any other k. The per-entry
// accessors (IntersectsQuery, AppendEntryCoords, EntryRef, MinDist,
// EntryRectInto) answer for one entry; no kernel calls them, and they are
// the references both loops are held to, word for word, on arbitrary page
// bytes (view_test.go, FuzzViewEquivalence). Unmarshal keeps its own
// per-entry rectangle check, the independent reference MakeView's verdicts
// are held to (FuzzViewRectCheck).
//
// Lifetime contract: a View aliases the page slice it was created over and
// is valid only as long as those bytes are stable — for a buffer-managed
// page, between the buffer Fetch that pinned the frame and the matching
// Release (see internal/buffer.Frame). Views must never be stored,
// returned upward, or used after the pin is dropped; the traversal code in
// internal/rtree creates a View per visited page and lets it die inside
// the pin scope.
//
// Insert and Delete descend through Views too and write through
// MutableView, and so do the whole-tree walk and the structural verifier:
// View is the one page decoder of the library. Unmarshal, its materializing
// twin, is kept as the reference the tests hold View to (FuzzViewEquivalence)
// and for the benchmark probe that times it.
//
// Validation: MakeView is the one validating constructor (MakeMutableView
// wraps it). internal/rtree's query path runs it on the first visit of a
// page's buffer residency, records the verdict on the buffer frame, and
// builds later views of the same unchanged bytes with MakeTrustedView, which
// repeats only the O(1) header gates; its Walk and Check run it on every
// visit. Whoever changes the bytes clears the verdict (see
// internal/buffer.Frame).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"strtree/internal/geom"
)

// View is a lazily-decoded, read-only view over one serialized page.
// The zero View is invalid; construct with MakeView, which performs the
// same corruption checks as Unmarshal, or — over bytes MakeView already
// accepted and that have not changed since — with MakeTrustedView. A View is a
// small value (slice header plus three ints) intended to live on the
// stack; methods use value receivers so no View ever escapes to the heap.
type View struct {
	page  []byte
	dims  int
	level int
	count int
}

// MakeView validates page and returns a view over it. The checks are
// identical to Unmarshal's — magic, version, dimensionality, entry-count
// bounds, payload CRC, and per-entry rectangle validity (no NaNs, Min <=
// Max on every axis) — so a page accepted by one is accepted by the other
// and a page rejected by one is rejected by the other with the same
// sentinel error (FuzzViewEquivalence pins this). Validation decodes every
// float once but retains nothing: after MakeView returns, accessors read
// straight from the page bytes. On a full 2-D page it costs ≈ 0.4 µs, half
// of it the CRC (BenchmarkViewScan/dims=2/MakeView): what a buffer miss
// pays on top of its read, since a hit reuses the verdict.
func MakeView(page []byte) (View, error) {
	v, err := MakeTrustedView(page)
	if err != nil {
		return View{}, err
	}
	end := v.entryOff(v.count)
	if got, want := crc32.ChecksumIEEE(page[HeaderSize:end]), binary.LittleEndian.Uint32(page[8:]); got != want {
		return View{}, fmt.Errorf("%w: crc %08x, header says %08x", ErrBadChecksum, got, want)
	}
	if i := FirstInvalid(page[HeaderSize:end], v.dims); i < v.count {
		// Materialize the offending rectangle only on the error path,
		// to match Unmarshal's diagnostic.
		return View{}, fmt.Errorf("%w: entry %d has invalid rectangle %v", ErrCorrupt, i, v.EntryRect(i))
	}
	return v, nil
}

// MakeTrustedView returns a view over a page whose payload the caller
// already knows to be valid: these exact bytes passed MakeView and have not
// changed since. It runs MakeView's O(1) header gates — length, magic,
// version, dimensionality, entry count fits the page — which are what keep
// every accessor in bounds for i < Count(), and skips only the two linear
// passes, the payload CRC and the per-entry rectangle check. It is not a
// validator: the one caller outside this package is internal/rtree's
// viewOf, which reaches it only for a buffer frame whose Checked mark is
// set (see buffer.Frame for who sets and who clears that mark).
func MakeTrustedView(page []byte) (View, error) {
	if len(page) < HeaderSize {
		return View{}, fmt.Errorf("%w: page shorter than header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint16(page[0:]) != Magic {
		return View{}, ErrBadMagic
	}
	if page[2] != Version {
		return View{}, fmt.Errorf("%w: version %d", ErrBadVersion, page[2])
	}
	dims := int(page[3])
	if dims == 0 {
		return View{}, fmt.Errorf("%w: zero dimensionality", ErrCorrupt)
	}
	level := int(binary.LittleEndian.Uint16(page[4:]))
	count := int(binary.LittleEndian.Uint16(page[6:]))
	if HeaderSize+count*EntrySize(dims) > len(page) {
		return View{}, fmt.Errorf("%w: %d entries overflow the page", ErrCorrupt, count)
	}
	return View{page: page, dims: dims, level: level, count: count}, nil
}

// Level returns the node's level (0 = leaf).
func (v View) Level() int { return v.level }

// IsLeaf reports whether the page holds a leaf node.
func (v View) IsLeaf() bool { return v.level == 0 }

// Dims returns the page's dimensionality.
func (v View) Dims() int { return v.dims }

// Count returns the number of entries on the page.
func (v View) Count() int { return v.count }

// entryOff returns the byte offset of entry i's first coordinate.
func (v View) entryOff(i int) int { return HeaderSize + i*EntrySize(v.dims) }

// EntryRef returns entry i's pointer: the child page number on internal
// levels, the opaque object identifier on leaves.
func (v View) EntryRef(i int) uint64 {
	off := v.entryOff(i) + 16*v.dims
	return binary.LittleEndian.Uint64(v.page[off:])
}

// EntryRect returns entry i's rectangle as a freshly allocated geom.Rect.
// Hot paths should prefer EntryRectInto with reused storage; this form
// exists for call sites where an owned rectangle is the point (error
// diagnostics, result materialization).
func (v View) EntryRect(i int) geom.Rect {
	r := geom.Rect{Min: make(geom.Point, v.dims), Max: make(geom.Point, v.dims)}
	v.EntryRectInto(i, &r)
	return r
}

// EntryRectInto decodes entry i's rectangle into dst, whose Min and Max
// must already have length Dims. dst may be reused across calls — the
// allocation-free traversal decodes every emitted match into one scratch
// rectangle.
func (v View) EntryRectInto(i int, dst *geom.Rect) {
	RecordRectInto(v.page[v.entryOff(i):], dst)
}

// AppendEntryCoords appends entry i's coordinates to dst as Min[0..dims)
// followed by Max[0..dims), the layout rectFromSlab-style consumers slice
// back into a geom.Rect. It lets a traversal bank coordinates in one
// growable slab instead of allocating a rectangle per retained entry.
func (v View) AppendEntryCoords(dst []float64, i int) []float64 {
	off := v.entryOff(i)
	for d := 0; d < v.dims; d++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(v.page[off:])))
		off += 16
	}
	off = v.entryOff(i) + 8
	for d := 0; d < v.dims; d++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(v.page[off:])))
		off += 16
	}
	return dst
}

// IntersectsQuery reports whether entry i's rectangle intersects q
// (closed-box semantics, exactly geom.Rect.Intersects over the raw words)
// for any dimensionality. It is the reference the window kernels are tested
// against, not what a traversal calls per entry: a call copies the View and
// q, re-derives the entry offset and bounds-checks every load — 21 ns per
// entry on a 2-D page (BenchmarkViewScan), most of a buffered query when the
// traversals used it.
func (v View) IntersectsQuery(q geom.Rect, i int) bool {
	off := v.entryOff(i)
	miss := false
	for d := 0; d < v.dims; d++ {
		lo := math.Float64frombits(binary.LittleEndian.Uint64(v.page[off:]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(v.page[off+8:]))
		miss = miss || lo > q.Max[d] || q.Min[d] > hi
		off += 16
	}
	return !miss
}

// records returns the page's entry array: Count whole records of Dims axes.
func (v View) records() []byte {
	return v.page[HeaderSize:v.entryOff(v.count)]
}

// meets reports whether the record rec starts with, of len(qlo) axes,
// intersects the box [qlo, qhi]: IntersectsQuery's comparisons, stopping at
// the first axis that misses. It is the window kernels' strided step for any
// k.
func meets(rec []byte, qlo, qhi []float64) bool {
	for d := range qlo {
		if RecordWord(rec, 2*d) > qhi[d] || qlo[d] > RecordWord(rec, 2*d+1) {
			return false
		}
	}
	return true
}

// AppendIntersecting appends to dst the indices, ascending, of the entries
// whose rectangles intersect q — {i : IntersectsQuery(q, i)} — and returns
// the extended slice: the window test of every visited page whose matches
// are wanted by index (internal nodes, a count's leaves, FindLeaf), into
// scratch the caller owns. At k = 2 the query bounds are loaded once and
// the entries walked by a constant stride: 1.7 ns per entry. Any other k
// walks the records by stride with an inner loop over the axes. The
// comparisons are IntersectsQuery's own, so the kernel agrees with it on
// any words, NaNs included, and every entry of the page is tested, as the
// access counts assume.
func (v View) AppendIntersecting(dst []int32, q geom.Rect) []int32 {
	if v.dims != 2 || len(q.Min) != 2 || len(q.Max) != 2 {
		size, qlo, qhi := EntrySize(v.dims), q.Min[:v.dims], q.Max[:v.dims]
		for i, ents := int32(0), v.records(); len(ents) >= size; i, ents = i+1, ents[size:] {
			if meets(ents, qlo, qhi) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	const size = 2*16 + 8 // EntrySize(2)
	qx0, qy0, qx1, qy1 := q.Min[0], q.Min[1], q.Max[0], q.Max[1]
	ents := v.page[HeaderSize : HeaderSize+v.count*size]
	for i := int32(0); len(ents) >= size; i, ents = i+1, ents[size:] {
		x0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[0:]))
		x1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[8:]))
		y0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[16:]))
		y1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[24:]))
		if x0 > qx1 || qx0 > x1 || y0 > qy1 || qy0 > y1 {
			continue
		}
		dst = append(dst, i)
	}
	return dst
}

// AppendMatches is AppendIntersecting for a page whose matches are about to
// be copied out: it runs the same test over the same words, in the same
// order, and banks each entry that passes as it finds it — its coordinates
// appended to slab in AppendEntryCoords' layout (Min[0..dims) then
// Max[0..dims)), its ref to refs — so a leaf is read once instead of once
// for the test and twice more per match. It returns both extended slices;
// match j's rectangle is slab[2*dims*j : 2*dims*(j+1)] past slab's old
// length. Both arms share AppendIntersecting's walk.
func (v View) AppendMatches(slab []float64, refs []uint64, q geom.Rect) ([]float64, []uint64) {
	if v.dims != 2 || len(q.Min) != 2 || len(q.Max) != 2 {
		k := v.dims
		size, qlo, qhi := EntrySize(k), q.Min[:k], q.Max[:k]
		for ents := v.records(); len(ents) >= size; ents = ents[size:] {
			if !meets(ents, qlo, qhi) {
				continue
			}
			for w := 0; w < 2*k; w += 2 {
				slab = append(slab, RecordWord(ents, w))
			}
			for w := 1; w < 2*k; w += 2 {
				slab = append(slab, RecordWord(ents, w))
			}
			refs = append(refs, RecordRef(ents, k))
		}
		return slab, refs
	}
	const size = 2*16 + 8 // EntrySize(2)
	qx0, qy0, qx1, qy1 := q.Min[0], q.Min[1], q.Max[0], q.Max[1]
	ents := v.page[HeaderSize : HeaderSize+v.count*size]
	for ; len(ents) >= size; ents = ents[size:] {
		x0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[0:]))
		x1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[8:]))
		y0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[16:]))
		y1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[24:]))
		if x0 > qx1 || qx0 > x1 || y0 > qy1 || qy0 > y1 {
			continue
		}
		slab = append(slab, x0, y0, x1, y1)
		refs = append(refs, binary.LittleEndian.Uint64(ents[32:]))
	}
	return slab, refs
}

// CoveredBy reports whether entry i's rectangle lies wholly inside q
// (closed boxes: q.Min <= Min and Max <= q.Max on every axis; any NaN word
// answers false). A window search asks it of the few entries of an internal
// node that intersect its window: everything below a covered entry matches
// the window, so the subtree needs no further tests (internal/rtree's
// searchView).
func (v View) CoveredBy(q geom.Rect, i int) bool {
	off := v.entryOff(i)
	in := true
	for d := 0; d < v.dims; d++ {
		lo := math.Float64frombits(binary.LittleEndian.Uint64(v.page[off:]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(v.page[off+8:]))
		in = in && q.Min[d] <= lo && hi <= q.Max[d]
		off += 16
	}
	return in
}

// LeastEnlargement returns the index of the entry whose rectangle needs the
// least enlargement to cover r, ties broken by smaller area and then by lower
// index (Guttman's ChooseLeaf step CL3): the one choice an insert's descent
// makes per visited page. Both arms load r once and walk the entries by
// stride, computing what geom.Rect.Enlargement and Area compute, operation
// for operation — the conversions keep a compiler from fusing a multiply
// into the subtract — so the choice is that of a loop over decoded entries
// on any words (FuzzLeastEnlargement). An empty page answers 0.
func (v View) LeastEnlargement(r geom.Rect) int {
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	if v.dims != 2 || len(r.Min) != 2 || len(r.Max) != 2 {
		size, rlo, rhi := EntrySize(v.dims), r.Min[:v.dims], r.Max[:v.dims]
		for i, ents := 0, v.records(); len(ents) >= size; i, ents = i+1, ents[size:] {
			area, u := 1.0, 1.0
			for d := range rlo {
				lo, hi := RecordWord(ents, 2*d), RecordWord(ents, 2*d+1)
				area = float64(area * (hi - lo))
				u = float64(u * (max(hi, rhi[d]) - min(lo, rlo[d])))
			}
			//strlint:ignore floateq exact tie-break on equal enlargement, per Guttman; a tolerance would misclassify near-ties
			if enl := u - area; enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		return best
	}
	const size = 2*16 + 8 // EntrySize(2)
	rx0, ry0, rx1, ry1 := r.Min[0], r.Min[1], r.Max[0], r.Max[1]
	ents := v.page[HeaderSize : HeaderSize+v.count*size]
	for i := 0; len(ents) >= size; i, ents = i+1, ents[size:] {
		x0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[0:]))
		x1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[8:]))
		y0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[16:]))
		y1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[24:]))
		area := float64((x1 - x0) * (y1 - y0))
		enl := float64((max(x1, rx1)-min(x0, rx0))*(max(y1, ry1)-min(y0, ry0))) - area
		//strlint:ignore floateq exact tie-break on equal enlargement, per Guttman; a tolerance would misclassify near-ties
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// MinDist returns the minimum Euclidean distance from point p to entry
// i's rectangle (0 if p is inside), decoded in place: the reference
// AppendMinDist, the nearest-neighbour traversal's page kernel, is tested
// against.
func (v View) MinDist(p geom.Point, i int) float64 {
	off := v.entryOff(i)
	sum := 0.0
	for d := range p {
		lo := math.Float64frombits(binary.LittleEndian.Uint64(v.page[off:]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(v.page[off+8:]))
		var dd float64
		switch {
		case p[d] < lo:
			dd = lo - p[d]
		case p[d] > hi:
			dd = p[d] - hi
		}
		sum += dd * dd
		off += 16
	}
	return math.Sqrt(sum)
}

// AppendMinDist appends MinDist(p, i) for every entry of the page, in entry
// order, to dst and returns the extended slice: the one pass a best-first
// nearest-neighbour search makes over a visited page, after which it touches
// only the entries that can still win. p has Dims coordinates. Both arms
// load p once and walk the entries by stride, computing what MinDist
// computes, operation for operation, so the two agree on any words.
func (v View) AppendMinDist(dst []float64, p geom.Point) []float64 {
	if v.dims != 2 || len(p) != 2 {
		size, p := EntrySize(v.dims), p[:v.dims]
		for ents := v.records(); len(ents) >= size; ents = ents[size:] {
			sum := 0.0
			for d, c := range p {
				lo, hi := RecordWord(ents, 2*d), RecordWord(ents, 2*d+1)
				var dd float64
				switch {
				case c < lo:
					dd = lo - c
				case c > hi:
					dd = c - hi
				}
				sum += dd * dd
			}
			dst = append(dst, math.Sqrt(sum))
		}
		return dst
	}
	const size = 2*16 + 8 // EntrySize(2)
	px, py := p[0], p[1]
	ents := v.page[HeaderSize : HeaderSize+v.count*size]
	for ; len(ents) >= size; ents = ents[size:] {
		x0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[0:]))
		x1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[8:]))
		y0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[16:]))
		y1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[24:]))
		var dx, dy float64
		switch {
		case px < x0:
			dx = x0 - px
		case px > x1:
			dx = px - x1
		}
		switch {
		case py < y0:
			dy = y0 - py
		case py > y1:
			dy = py - y1
		}
		dst = append(dst, math.Sqrt(dx*dx+dy*dy))
	}
	return dst
}

// MBRInto computes the minimum bounding rectangle of the page's entries
// into dst, whose Min and Max must already have length Dims: the first
// entry's rectangle grown over the rest by UnionRecords. It panics on an
// empty page, which has no MBR.
func (v View) MBRInto(dst *geom.Rect) {
	if v.count == 0 {
		//strlint:ignore panics documented contract: an empty node has no MBR, and no tree holds one
		panic("node: MBR of empty view")
	}
	recs := v.records()
	RecordRectInto(recs, dst)
	UnionRecords(dst, recs[EntrySize(v.dims):])
}
