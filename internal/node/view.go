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
// distance to a point: nearest-neighbour search) and LeastEnlargement (an
// insert's descent). Each has a k = 2 arm that loads its argument once and
// walks the entries by stride with no bounds check in the loop, and a
// fallback for any other k built on the per-entry accessors below it
// (IntersectsQuery, AppendEntryCoords, EntryRef, MinDist), which are also
// the references the arms are tested against, word for word, on arbitrary
// page bytes (view_test.go, FuzzViewEquivalence). MakeView's rectangle check
// is the fifth kernel, with the same two arms (firstInvalid over
// RecordValid), and FillRecords (node.go) runs it on the records it is
// about to write; Unmarshal keeps its own per-entry check, because it is the
// independent reference MakeView's verdicts are held to (FuzzViewRectCheck).
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
	if i := firstInvalid(page[HeaderSize:end], v.dims); i < v.count {
		// Materialize the offending rectangle only on the error path,
		// to match Unmarshal's diagnostic.
		return View{}, fmt.Errorf("%w: entry %d has invalid rectangle %v", ErrCorrupt, i, v.EntryRect(i))
	}
	return v, nil
}

// firstInvalid returns the index of the first record of recs — whole entries
// of dims axes in the page layout — that is not a well-formed rectangle
// (RecordValid false), or the number of records if every one is: MakeView's
// rectangle check, and FillRecords'. At k = 2 the records are walked by
// stride with no bounds check in the loop and one !(lo <= hi) per axis, which
// is true for a NaN on either side and for an inversion — RecordValid's three
// tests in one comparison, so the two agree on any words: 1.7 ns per entry.
// Any other k runs RecordValid per record.
func firstInvalid(recs []byte, dims int) int {
	if dims != 2 {
		size := EntrySize(dims)
		n := len(recs) / size
		for i := 0; i < n; i++ {
			if !RecordValid(recs[i*size:], dims) {
				return i
			}
		}
		return n
	}
	const size = 2*16 + 8 // EntrySize(2): a constant stride proves every load in bounds
	i := 0
	for ents := recs; len(ents) >= size; i, ents = i+1, ents[size:] {
		x0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[0:]))
		x1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[8:]))
		y0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[16:]))
		y1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[24:]))
		if !(x0 <= x1) || !(y0 <= y1) {
			return i
		}
	}
	return i
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

// RecordValid reports whether the record rec starts with decodes to a
// well-formed rectangle: no NaN coordinates and Min <= Max on every axis
// (geom.Rect.Valid over the wire words, without building the rectangle):
// firstInvalid's step for k != 2, and the streaming bulk loader's check.
func RecordValid(rec []byte, dims int) bool {
	for d := 0; d < dims; d++ {
		lo := math.Float64frombits(binary.LittleEndian.Uint64(rec[16*d:]))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(rec[16*d+8:]))
		if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
			return false
		}
	}
	return true
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

// EntryID is EntryRef under its leaf-level meaning: the data object's
// identifier. Provided so leaf-iterating code reads naturally.
func (v View) EntryID(i int) uint64 { return v.EntryRef(i) }

// EntryMin returns coordinate d of entry i's lower corner.
func (v View) EntryMin(i, d int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.page[v.entryOff(i)+16*d:]))
}

// EntryMax returns coordinate d of entry i's upper corner.
func (v View) EntryMax(i, d int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.page[v.entryOff(i)+16*d+8:]))
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
	off := v.entryOff(i)
	for d := 0; d < v.dims; d++ {
		dst.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(v.page[off:]))
		dst.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(v.page[off+8:]))
		off += 16
	}
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
// for any dimensionality. It is the reference the page kernel is tested
// against and the inner step of its k-dimensional fallback, not what a
// traversal calls per entry: a call copies the View and q, re-derives the
// entry offset and bounds-checks every load — 21 ns per entry on a 2-D page
// (BenchmarkViewScan), most of a buffered query when the traversals used it.
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

// AppendIntersecting appends to dst the indices, ascending, of the entries
// whose rectangles intersect q — {i : IntersectsQuery(q, i)} — and returns
// the extended slice: the window test of every visited page whose matches
// are wanted by index (internal nodes, a count's leaves, FindLeaf), into
// scratch the caller owns. At k = 2 the query bounds are loaded
// once and the entry array, sliced once, is walked by stride with no bounds
// check in the loop: 1.7 ns per entry. Any other k goes entry by entry
// through IntersectsQuery. The comparisons are IntersectsQuery's own, so
// the two agree on any words, NaNs included, and there is no early exit:
// every entry of the page is tested, as the access counts assume.
func (v View) AppendIntersecting(dst []int32, q geom.Rect) []int32 {
	if v.dims != 2 || len(q.Min) != 2 || len(q.Max) != 2 {
		for i := 0; i < v.count; i++ {
			if v.IntersectsQuery(q, i) {
				dst = append(dst, int32(i))
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
// length. The k = 2 arm shares AppendIntersecting's loop; any other k goes
// entry by entry through IntersectsQuery, AppendEntryCoords and EntryRef.
func (v View) AppendMatches(slab []float64, refs []uint64, q geom.Rect) ([]float64, []uint64) {
	if v.dims != 2 || len(q.Min) != 2 || len(q.Max) != 2 {
		for i := 0; i < v.count; i++ {
			if v.IntersectsQuery(q, i) {
				slab = v.AppendEntryCoords(slab, i)
				refs = append(refs, v.EntryRef(i))
			}
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
// makes per visited page. At k = 2 r is loaded once and the entry array walked
// by stride, computing what geom.Rect.Enlargement and Area compute, operation
// for operation — the conversions keep a compiler from fusing the multiply
// into the subtract — so the choice is the per-entry loop's on any words.
// Any other k runs that loop, decoding each entry into scratch (Dims long).
// An empty page answers 0.
func (v View) LeastEnlargement(r geom.Rect, scratch *geom.Rect) int {
	if v.dims != 2 || len(r.Min) != 2 || len(r.Max) != 2 {
		return v.leastEnlargementEach(r, scratch)
	}
	const size = 2*16 + 8 // EntrySize(2)
	rx0, ry0, rx1, ry1 := r.Min[0], r.Min[1], r.Max[0], r.Max[1]
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
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

// leastEnlargementEach is LeastEnlargement for any dimensionality, one
// decoded entry at a time: the fallback, and the reference the k = 2 arm is
// tested against.
func (v View) leastEnlargementEach(r geom.Rect, scratch *geom.Rect) int {
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i := 0; i < v.count; i++ {
		v.EntryRectInto(i, scratch)
		enl, area := scratch.Enlargement(r), scratch.Area()
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
// against, and the inner step of its k-dimensional fallback.
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
// only the entries that can still win. At k = 2 p is loaded once and the
// entry array walked by stride, computing what MinDist computes, operation
// for operation, so the two agree on any words; any other k calls MinDist
// per entry.
func (v View) AppendMinDist(dst []float64, p geom.Point) []float64 {
	if v.dims != 2 || len(p) != 2 {
		for i := 0; i < v.count; i++ {
			dst = append(dst, v.MinDist(p, i))
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
// into dst, whose Min and Max must already have length Dims. It panics on
// an empty page, matching Node.MBR's contract.
func (v View) MBRInto(dst *geom.Rect) {
	if v.count == 0 {
		//strlint:ignore panics documented contract: an empty node has no MBR, matching Node.MBR
		panic("node: MBR of empty view")
	}
	v.EntryRectInto(0, dst)
	off := v.entryOff(1)
	for i := 1; i < v.count; i++ {
		for d := 0; d < v.dims; d++ {
			lo := math.Float64frombits(binary.LittleEndian.Uint64(v.page[off:]))
			hi := math.Float64frombits(binary.LittleEndian.Uint64(v.page[off+8:]))
			if lo < dst.Min[d] {
				dst.Min[d] = lo
			}
			if hi > dst.Max[d] {
				dst.Max[d] = hi
			}
			off += 16
		}
		off += 8
	}
}
