package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"strtree/internal/geom"
)

// marshalSample serializes a sample node into a fresh page.
func marshalSample(t testing.TB, level, dims, count int, seed int64) ([]byte, *Node) {
	t.Helper()
	n := sampleNode(level, dims, count, rand.New(rand.NewSource(seed)))
	page := make([]byte, 4096)
	if err := Marshal(n, page); err != nil {
		t.Fatal(err)
	}
	return page, n
}

// EntryID is EntryRef under its leaf-level meaning, EntryMin and EntryMax
// one word of entry i's lower and upper corner on axis d: the single-word
// accessors the decoders are held to.
func (v View) EntryID(i int) uint64 { return v.EntryRef(i) }

func (v View) EntryMin(i, d int) float64 { return RecordWord(v.page[v.entryOff(i):], 2*d) }

func (v View) EntryMax(i, d int) float64 { return RecordWord(v.page[v.entryOff(i):], 2*d+1) }

func TestViewAccessorsMatchUnmarshal(t *testing.T) {
	for _, tc := range []struct{ level, dims, count int }{
		{0, 2, 0},
		{0, 2, 1},
		{0, 2, 37},
		{3, 2, 102},
		{0, 1, 10},
		{2, 5, 8},
		{0, 8, 4},
	} {
		page, _ := marshalSample(t, tc.level, tc.dims, tc.count, int64(tc.level*1000+tc.dims*100+tc.count))
		var n Node
		if err := Unmarshal(page, &n); err != nil {
			t.Fatal(err)
		}
		v, err := MakeView(page)
		if err != nil {
			t.Fatalf("MakeView rejected a valid page: %v", err)
		}
		if v.Level() != n.Level || v.Dims() != n.Dims || v.Count() != len(n.Entries) {
			t.Fatalf("header mismatch: view (%d,%d,%d) vs node (%d,%d,%d)",
				v.Level(), v.Dims(), v.Count(), n.Level, n.Dims, len(n.Entries))
		}
		if v.IsLeaf() != (n.Level == 0) {
			t.Fatal("IsLeaf mismatch")
		}
		scratch := geom.Rect{Min: make(geom.Point, v.Dims()), Max: make(geom.Point, v.Dims())}
		for i, e := range n.Entries {
			if v.EntryRef(i) != e.Ref || v.EntryID(i) != e.Ref {
				t.Fatalf("entry %d ref mismatch", i)
			}
			if !v.EntryRect(i).Equal(e.Rect) {
				t.Fatalf("entry %d EntryRect mismatch", i)
			}
			v.EntryRectInto(i, &scratch)
			if !scratch.Equal(e.Rect) {
				t.Fatalf("entry %d EntryRectInto mismatch", i)
			}
			for d := 0; d < v.Dims(); d++ {
				//strlint:ignore floateq decode must be bit-exact
				if v.EntryMin(i, d) != e.Rect.Min[d] || v.EntryMax(i, d) != e.Rect.Max[d] {
					t.Fatalf("entry %d axis %d coordinate mismatch", i, d)
				}
			}
			coords := v.AppendEntryCoords(nil, i)
			for d := 0; d < v.Dims(); d++ {
				//strlint:ignore floateq decode must be bit-exact
				if coords[d] != e.Rect.Min[d] || coords[v.Dims()+d] != e.Rect.Max[d] {
					t.Fatalf("entry %d AppendEntryCoords mismatch", i)
				}
			}
		}
		if tc.count > 0 {
			v.MBRInto(&scratch)
			if !scratch.Equal(n.MBR()) {
				t.Fatalf("MBRInto %v != MBR %v", scratch, n.MBR())
			}
		}
	}
}

// checkScan holds the window kernels to their references for one query:
// AppendIntersecting returns exactly {i : IntersectsQuery(q, i)}, ascending,
// appended after a stale dst prefix it leaves alone; AppendMatches banks
// exactly those entries' AppendEntryCoords words and EntryRefs, bit for bit,
// after stale prefixes of its own; and — when the decoded entries are given
// — IntersectsQuery equals geom.Rect.Intersects and CoveredBy equals
// geom.Rect.Contains. Without entries the words may be anything (a trusted
// view over fuzzed bytes), NaNs included: CoveredBy must then still say no
// for an entry with a NaN word.
func checkScan(t *testing.T, v View, entries []Entry, q geom.Rect) {
	t.Helper()
	var want []int32
	var wantSlab []float64
	var wantRefs []uint64
	for i := 0; i < v.Count(); i++ {
		hit := v.IntersectsQuery(q, i)
		if entries != nil && hit != q.Intersects(entries[i].Rect) {
			t.Fatalf("dims %d entry %d query %v: IntersectsQuery=%v, geom=%v", v.Dims(), i, q, hit, !hit)
		}
		if hit {
			want = append(want, int32(i))
			wantSlab = v.AppendEntryCoords(wantSlab, i)
			wantRefs = append(wantRefs, v.EntryRef(i))
		}
		covered := v.CoveredBy(q, i)
		if entries != nil && covered != q.Contains(entries[i].Rect) {
			t.Fatalf("dims %d entry %d query %v: CoveredBy=%v, geom=%v", v.Dims(), i, q, covered, !covered)
		}
		if entries != nil && covered && !hit {
			t.Fatalf("dims %d entry %d query %v: covered but not intersecting", v.Dims(), i, q)
		}
		if covered && slices.ContainsFunc(v.AppendEntryCoords(nil, i), math.IsNaN) {
			t.Fatalf("dims %d entry %d query %v: an entry with a NaN word is covered", v.Dims(), i, q)
		}
	}
	stale := []int32{-7, -8, -9}
	got := v.AppendIntersecting(append(make([]int32, 0, len(stale)+v.Count()/2), stale...), q)
	if len(got) < len(stale) || !slices.Equal(got[:len(stale)], stale) {
		t.Fatalf("dims %d query %v: dst prefix overwritten: %v", v.Dims(), q, got)
	}
	if !slices.Equal(got[len(stale):], want) {
		t.Fatalf("dims %d count %d query %v: AppendIntersecting=%v, per-entry=%v", v.Dims(), v.Count(), q, got[len(stale):], want)
	}
	if got := v.AppendIntersecting(nil, q); !slices.Equal(got, want) {
		t.Fatalf("dims %d query %v: into nil dst: %v, want %v", v.Dims(), q, got, want)
	}

	staleSlab, staleRefs := []float64{-1, -2, -3}, []uint64{7}
	slab, refs := v.AppendMatches(slices.Clone(staleSlab), slices.Clone(staleRefs), q)
	if len(slab) < len(staleSlab) || !sameBits(slab[:len(staleSlab)], staleSlab) ||
		len(refs) < len(staleRefs) || !slices.Equal(refs[:len(staleRefs)], staleRefs) {
		t.Fatalf("dims %d query %v: AppendMatches overwrote a prefix: %v %v", v.Dims(), q, slab, refs)
	}
	if !sameBits(slab[len(staleSlab):], wantSlab) || !slices.Equal(refs[len(staleRefs):], wantRefs) {
		t.Fatalf("dims %d count %d query %v: AppendMatches banked %v %v, per-entry %v %v",
			v.Dims(), v.Count(), q, slab[len(staleSlab):], refs[len(staleRefs):], wantSlab, wantRefs)
	}
	if slab, refs := v.AppendMatches(nil, nil, q); !sameBits(slab, wantSlab) || !slices.Equal(refs, wantRefs) {
		t.Fatalf("dims %d query %v: AppendMatches into nil: %v %v, want %v %v", v.Dims(), q, slab, refs, wantSlab, wantRefs)
	}
}

// sameBits reports whether a and b hold the same words: float equality that
// tells -0 from 0 and lets a NaN equal itself.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkDists holds the distance kernel to its reference for one point:
// AppendMinDist appends exactly MinDist(p, i) for i = 0..Count-1, bit for
// bit, after a stale prefix it leaves alone.
func checkDists(t *testing.T, v View, p geom.Point) {
	t.Helper()
	var want []float64
	for i := 0; i < v.Count(); i++ {
		want = append(want, v.MinDist(p, i))
	}
	stale := []float64{-1, -2}
	got := v.AppendMinDist(slices.Clone(stale), p)
	if len(got) < len(stale) || !sameBits(got[:len(stale)], stale) {
		t.Fatalf("dims %d point %v: dst prefix overwritten: %v", v.Dims(), p, got)
	}
	if !sameBits(got[len(stale):], want) {
		t.Fatalf("dims %d count %d point %v: AppendMinDist=%v, per-entry=%v", v.Dims(), v.Count(), p, got[len(stale):], want)
	}
}

// TestViewIntersectsQueryMatchesGeom pins the page kernels — each one's
// k = 2 arm and its strided any-k loop — to the per-entry accessors and
// those to geom over Unmarshal's entries (checkScan; checkDists takes every
// query's corners as points): empty, single-entry and
// full pages; random, touching-edge, just-missing, point, infinite and
// signed-zero queries; entries with infinite and signed-zero bounds.
func TestViewIntersectsQueryMatchesGeom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	for _, dims := range []int{1, 2, 3, 4} {
		for _, count := range []int{0, 1, Capacity(4096, dims)} {
			n := sampleNode(0, dims, count, rand.New(rand.NewSource(int64(dims*1000+count))))
			if count > 0 {
				n.Entries[0].Rect.Min[0], n.Entries[0].Rect.Max[0] = -inf, inf
			}
			if count > 2 {
				n.Entries[1].Rect.Min[dims-1], n.Entries[1].Rect.Max[dims-1] = negZero, 0
				n.Entries[2].Rect.Min[0], n.Entries[2].Rect.Max[0] = inf, inf
			}
			page := make([]byte, 4096)
			if err := Marshal(n, page); err != nil {
				t.Fatal(err)
			}
			v, err := MakeView(page)
			if err != nil {
				t.Fatal(err)
			}
			fill := func(lo, hi float64) geom.Rect {
				q := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
				for d := range q.Min {
					q.Min[d], q.Max[d] = lo, hi
				}
				return q
			}
			queries := []geom.Rect{
				fill(-inf, inf), fill(inf, inf), fill(-inf, -inf), fill(-inf, 0.5),
				fill(0, 0), fill(negZero, negZero), fill(negZero, 0), fill(0.5, 0.5),
			}
			for trial := 0; trial < 100; trial++ {
				q := fill(0, 0)
				for d := range q.Min {
					q.Min[d] = rng.Float64() * 1.5
					q.Max[d] = q.Min[d] + rng.Float64()*0.5
				}
				queries = append(queries, q)
			}
			for _, e := range n.Entries {
				// Closed boxes: a point on a corner intersects, one a single
				// ulp outside on any axis does not.
				queries = append(queries,
					geom.Rect{Min: e.Rect.Max, Max: e.Rect.Max},
					geom.Rect{Min: e.Rect.Min, Max: e.Rect.Min})
				beyond := e.Rect.Max.Clone()
				beyond[dims-1] = math.Nextafter(beyond[dims-1], inf)
				queries = append(queries, geom.Rect{Min: beyond, Max: beyond})
			}
			for _, q := range queries {
				checkScan(t, v, n.Entries, q)
				checkDists(t, v, q.Min)
				checkDists(t, v, q.Max)
			}
			if count > 0 {
				if got := v.AppendIntersecting(nil, geom.Rect{Min: n.Entries[count-1].Rect.Max, Max: n.Entries[count-1].Rect.Max}); !slices.Contains(got, int32(count-1)) {
					t.Fatalf("dims %d: touching corner of entry %d did not intersect: %v", dims, count-1, got)
				}
			}
		}
	}
}

// TestViewScanZeroAlloc: with warm destinations the page kernels allocate
// nothing, on the k = 2 arm and on the strided loop.
func TestViewScanZeroAlloc(t *testing.T) {
	for _, dims := range []int{2, 3} {
		page, _ := marshalSample(t, 1, dims, Capacity(4096, dims), int64(dims))
		v, err := MakeView(page)
		if err != nil {
			t.Fatal(err)
		}
		q := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
		for d := range q.Min {
			q.Min[d], q.Max[d] = 0.2, 1.4
		}
		hits := v.AppendIntersecting(nil, q)
		if len(hits) == 0 {
			t.Fatal("query matched nothing; the gate exercised no append")
		}
		if allocs := testing.AllocsPerRun(100, func() { hits = v.AppendIntersecting(hits[:0], q) }); allocs != 0 {
			t.Fatalf("dims %d: AppendIntersecting allocated %.1f times per page", dims, allocs)
		}
		slab, refs := v.AppendMatches(nil, nil, q)
		if allocs := testing.AllocsPerRun(100, func() { slab, refs = v.AppendMatches(slab[:0], refs[:0], q) }); allocs != 0 {
			t.Fatalf("dims %d: AppendMatches allocated %.1f times per page", dims, allocs)
		}
		dists := v.AppendMinDist(nil, q.Min)
		if allocs := testing.AllocsPerRun(100, func() { dists = v.AppendMinDist(dists[:0], q.Min) }); allocs != 0 {
			t.Fatalf("dims %d: AppendMinDist allocated %.1f times per page", dims, allocs)
		}
	}
}

func TestViewMinDistMatchesRect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	page, n := marshalSample(t, 0, 2, 25, 11)
	v, err := MakeView(page)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		p := geom.Point{rng.Float64()*3 - 1, rng.Float64()*3 - 1}
		checkDists(t, v, p)
		for i, e := range n.Entries {
			want := refMinDist(p, e.Rect)
			//strlint:ignore floateq both sides run the identical float sequence on identical words
			if got := v.MinDist(p, i); got != want {
				t.Fatalf("entry %d point %v: MinDist=%g, ref=%g", i, p, got, want)
			}
		}
	}
}

// refMinDist mirrors internal/rtree's minDist formula.
func refMinDist(p geom.Point, r geom.Rect) float64 {
	sum := 0.0
	for i := range p {
		var d float64
		switch {
		case p[i] < r.Min[i]:
			d = r.Min[i] - p[i]
		case p[i] > r.Max[i]:
			d = p[i] - r.Max[i]
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// TestViewRejectsWhatUnmarshalRejects corrupts a valid page every way
// Unmarshal detects and checks MakeView returns the same sentinel.
func TestViewRejectsWhatUnmarshalRejects(t *testing.T) {
	page, _ := marshalSample(t, 1, 2, 12, 3)
	corrupt := func(mutate func([]byte)) []byte {
		c := append([]byte(nil), page...)
		mutate(c)
		return c
	}
	cases := []struct {
		name string
		page []byte
		want error
	}{
		{"short", []byte{0x54, 0x52}, ErrCorrupt},
		{"magic", corrupt(func(p []byte) { p[0] = 0 }), ErrBadMagic},
		{"version", corrupt(func(p []byte) { p[2] = 99 }), ErrBadVersion},
		{"zero dims", corrupt(func(p []byte) { p[3] = 0 }), ErrCorrupt},
		{"count overflow", corrupt(func(p []byte) { p[6] = 0xFF; p[7] = 0xFF }), ErrCorrupt},
		{"payload flip", corrupt(func(p []byte) { p[100] ^= 0xFF }), ErrBadChecksum},
	}
	for _, tc := range cases {
		if _, err := MakeView(tc.page); !errors.Is(err, tc.want) {
			t.Errorf("%s: MakeView err %v, want %v", tc.name, err, tc.want)
		}
		var n Node
		if err := Unmarshal(tc.page, &n); !errors.Is(err, tc.want) {
			t.Errorf("%s: Unmarshal err %v, want %v (equivalence baseline)", tc.name, err, tc.want)
		}
	}

	// An invalid rectangle behind a recomputed CRC: both parsers must
	// reject with ErrCorrupt.
	bad, _ := marshalSample(t, 1, 2, 12, 3)
	writeInvertedEntry(bad)
	if _, err := MakeView(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("inverted rect: MakeView err %v, want ErrCorrupt", err)
	}
	var n Node
	if err := Unmarshal(bad, &n); !errors.Is(err, ErrCorrupt) {
		t.Errorf("inverted rect: Unmarshal err %v, want ErrCorrupt", err)
	}
}

// writeInvertedEntry swaps entry 0's axis-0 interval so Min > Max and
// recomputes the payload CRC, producing a page that passes the checksum
// but fails rectangle validation.
func writeInvertedEntry(page []byte) {
	dims := int(page[3])
	count := int(binary.LittleEndian.Uint16(page[6:]))
	off := HeaderSize
	lo := binary.LittleEndian.Uint64(page[off:])
	hi := binary.LittleEndian.Uint64(page[off+8:])
	if math.Float64frombits(lo) == math.Float64frombits(hi) {
		// Degenerate interval: force a strict inversion instead of a swap.
		hi = math.Float64bits(math.Float64frombits(lo) - 1)
	}
	binary.LittleEndian.PutUint64(page[off:], hi)
	binary.LittleEndian.PutUint64(page[off+8:], lo)
	end := HeaderSize + count*EntrySize(dims)
	binary.LittleEndian.PutUint32(page[8:], crc32.ChecksumIEEE(page[HeaderSize:end]))
}

// rectCase is a page with a correct CRC whose rectangles are what is under
// test: bad is the index of its first invalid entry, -1 if every entry is
// valid.
type rectCase struct {
	name string
	page []byte
	bad  int
}

// rectCheckCases is the rectangle check's table, on a full page at k = 2
// (FirstInvalid's k = 2 arm) and k = 3 (its strided loop): a NaN, quiet or
// negative, in each word of an entry; an inversion on axis 0 and on axis 1;
// a bad entry at the last index; the first of two bad entries; and ±Inf and
// signed-zero bounds, which are valid (+0 <= -0), beside an inverted
// infinite interval, which is not. Marshal writes any words and their CRC.
func rectCheckCases(t testing.TB) []rectCase {
	nan, negNaN := math.NaN(), math.Float64frombits(0xFFF8000000000001)
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	var cases []rectCase
	for _, dims := range []int{2, 3} {
		add := func(name string, bad int, edit func(e []Entry)) {
			n := sampleNode(0, dims, Capacity(4096, dims), rand.New(rand.NewSource(int64(dims))))
			edit(n.Entries)
			page := make([]byte, 4096)
			if err := Marshal(n, page); err != nil {
				t.Fatal(err)
			}
			cases = append(cases, rectCase{fmt.Sprintf("dims=%d/%s", dims, name), page, bad})
		}
		for w := 0; w < 2*dims; w++ {
			word := nan
			if w%2 == 1 {
				word = negNaN
			}
			add(fmt.Sprintf("NaN word %d", w), 5, func(e []Entry) {
				if w%2 == 0 {
					e[5].Rect.Min[w/2] = word
				} else {
					e[5].Rect.Max[w/2] = word
				}
			})
		}
		for axis := 0; axis < 2; axis++ {
			add(fmt.Sprintf("inverted axis %d", axis), 7, func(e []Entry) {
				e[7].Rect.Min[axis], e[7].Rect.Max[axis] = 2, 1
			})
		}
		last := Capacity(4096, dims) - 1
		add("last entry", last, func(e []Entry) { e[last].Rect.Max[dims-1] = nan })
		add("first of two", 3, func(e []Entry) {
			e[3].Rect.Min[dims-1] = 9
			e[9].Rect.Min[0] = nan
		})
		add("infinite and signed-zero bounds", -1, func(e []Entry) {
			e[0].Rect.Min[0], e[0].Rect.Max[0] = -inf, inf
			e[1].Rect.Min[1], e[1].Rect.Max[1] = negZero, 0
			e[2].Rect.Min[1], e[2].Rect.Max[1] = 0, negZero
			e[3].Rect.Min[0], e[3].Rect.Max[0] = inf, inf
			e[4].Rect.Min[dims-1], e[4].Rect.Max[dims-1] = -inf, -inf
		})
		add("inverted infinities", 6, func(e []Entry) { e[6].Rect.Min[1], e[6].Rect.Max[1] = inf, -inf })
	}
	return cases
}

// TestViewRectCheckMatchesUnmarshal holds MakeView's rectangle check to
// Unmarshal's independent per-entry check on every rectCheckCases row: both
// accept the valid pages, and both reject the others with ErrCorrupt and the
// same message, which names the same first invalid entry.
func TestViewRectCheckMatchesUnmarshal(t *testing.T) {
	for _, tc := range rectCheckCases(t) {
		_, vErr := MakeView(tc.page)
		var n Node
		uErr := Unmarshal(tc.page, &n)
		if tc.bad < 0 {
			if vErr != nil || uErr != nil {
				t.Errorf("%s: a valid page was rejected: MakeView %v, Unmarshal %v", tc.name, vErr, uErr)
			}
			continue
		}
		want := fmt.Sprintf("entry %d has invalid rectangle", tc.bad)
		if !errors.Is(vErr, ErrCorrupt) || !errors.Is(uErr, ErrCorrupt) {
			t.Errorf("%s: MakeView %v, Unmarshal %v, want ErrCorrupt from both", tc.name, vErr, uErr)
		} else if vErr.Error() != uErr.Error() || !strings.Contains(vErr.Error(), want) {
			t.Errorf("%s: MakeView %q, Unmarshal %q, want both to say %q", tc.name, vErr, uErr, want)
		}
	}
}

// TestViewZeroAllocAccess pins the zero-copy property: iterating a page
// through a View with reused scratch performs no heap allocations.
func TestViewZeroAllocAccess(t *testing.T) {
	page, _ := marshalSample(t, 0, 2, 102, 5)
	q := geom.R2(0.2, 0.2, 1.4, 1.4)
	scratch := geom.Rect{Min: make(geom.Point, 2), Max: make(geom.Point, 2)}
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		v, err := MakeView(page)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < v.Count(); i++ {
			if v.IntersectsQuery(q, i) {
				v.EntryRectInto(i, &scratch)
				sink += v.EntryRef(i)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("view iteration allocated %.1f times per run", allocs)
	}
	_ = sink
}

// BenchmarkViewScan prices the page kernels on one full page per
// dimensionality: "per-entry" is the reference loop of IntersectsQuery
// calls, "page" the AppendIntersecting kernel, "AppendMatches" the same test
// banking its matches (a search's leaves), "AppendMinDist" the distance pass
// of a nearest-neighbour visit, "MBRInto" the page's MBR (what a mutation
// writes into the parent's entry), "MakeView" the validation a buffer miss pays
// (CRC and rectangle check; also in ns/page, the in-package twin of the
// ledger's node.makeview_ns_per_page). All report ns/entry. The queries
// rotate so the branch predictor cannot learn one answer vector.
func BenchmarkViewScan(b *testing.B) {
	for _, dims := range []int{2, 3} {
		count := Capacity(4096, dims)
		page, _ := marshalSample(b, 1, dims, count, int64(dims))
		v, err := MakeView(page)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		queries := make([]geom.Rect, 64)
		for k := range queries {
			q := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
			for d := 0; d < dims; d++ {
				q.Min[d] = rng.Float64() * 2
				q.Max[d] = q.Min[d] + rng.Float64()*0.1
			}
			queries[k] = q
		}
		hits := make([]int32, 0, count)
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/entry")
		}
		b.Run(fmt.Sprintf("dims=%d/per-entry", dims), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				q := queries[n%len(queries)]
				hits = hits[:0]
				for i := 0; i < count; i++ {
					if v.IntersectsQuery(q, i) {
						hits = append(hits, int32(i))
					}
				}
			}
			report(b)
		})
		b.Run(fmt.Sprintf("dims=%d/page", dims), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				hits = v.AppendIntersecting(hits[:0], queries[n%len(queries)])
			}
			report(b)
		})
		var slab []float64
		var refs []uint64
		b.Run(fmt.Sprintf("dims=%d/AppendMatches", dims), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				slab, refs = v.AppendMatches(slab[:0], refs[:0], queries[n%len(queries)])
			}
			report(b)
		})
		var dists []float64
		b.Run(fmt.Sprintf("dims=%d/AppendMinDist", dims), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				dists = v.AppendMinDist(dists[:0], queries[n%len(queries)].Min)
			}
			report(b)
		})
		box := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
		b.Run(fmt.Sprintf("dims=%d/MBRInto", dims), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				v.MBRInto(&box)
			}
			report(b)
		})
		b.Run(fmt.Sprintf("dims=%d/MakeView", dims), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := MakeView(page); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/page")
			report(b)
		})
	}
}
