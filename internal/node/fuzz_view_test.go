package node

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"strtree/internal/geom"
)

// FuzzViewEquivalence throws arbitrary bytes at both page parsers and
// requires them to agree byte-for-byte: MakeView accepts exactly the pages
// Unmarshal accepts (and rejects with the same sentinel error), and on
// accepted pages every View accessor returns exactly what the
// materialized Node holds — including the page kernels, each against the
// per-entry accessors and those against geom over the decoded entries
// (checkScan, checkDists), for queries and points cut from the page itself. This is the
// corruption-safety half of the zero-copy read path's correctness argument
// — the traversal half is pinned by internal/rtree's differential tests.
// The committed corpus
// under testdata/fuzz/FuzzViewEquivalence seeds valid pages of several
// shapes plus targeted mutations (header fields, payload, truncation). A
// mutated payload fails the CRC before its rectangles are looked at;
// FuzzViewRectCheck runs the same check behind a recomputed CRC.
//
// The same inputs hold the header-only constructor to its two promises
// (checkTrustedView): it never hands out a view an accessor can run off the
// page with, and it never disagrees with MakeView about a page both accept;
// over its unvalidated words the kernels still match their references,
// MBRInto the word loop among them.
func FuzzViewEquivalence(f *testing.F) {
	// Valid pages across levels, dimensionalities and fills.
	for _, tc := range []struct{ level, dims, count int }{
		{0, 2, 0}, {0, 2, 1}, {0, 2, 50}, {2, 2, 102}, {0, 1, 5}, {1, 8, 3}, {0, 3, 72}, {1, 4, 10},
	} {
		page := make([]byte, 4096)
		n := sampleNode(tc.level, tc.dims, tc.count, rand.New(rand.NewSource(int64(tc.level+tc.dims+tc.count))))
		if err := Marshal(n, page); err != nil {
			f.Fatal(err)
		}
		f.Add(page)
	}
	// Mutations of a valid page: header bytes, payload, truncations.
	base := make([]byte, 1024)
	if err := Marshal(sampleNode(1, 2, 20, rand.New(rand.NewSource(42))), base); err != nil {
		f.Fatal(err)
	}
	for _, at := range []int{0, 2, 3, 4, 6, 8, 12, 200} {
		mut := append([]byte(nil), base...)
		mut[at] ^= 0xFF
		f.Add(mut)
	}
	f.Add(base[:HeaderSize-1])
	f.Add([]byte{})

	f.Fuzz(checkParsersAgree)
}

// FuzzViewRectCheck reaches the branch FuzzViewEquivalence cannot: a fuzzed
// payload almost never carries its own CRC, so there both parsers stop at
// the checksum and the rectangle check never runs. Here the harness writes a
// valid magic and version, drops the inputs whose header MakeTrustedView
// still refuses (zero dims, a count that overflows the page), recomputes the
// payload CRC and holds the two parsers to each other (checkParsersAgree):
// the same verdict, and on a rejected rectangle the same message, so the
// first invalid entry MakeView's k = 2 arm names is Unmarshal's. Seeded with
// the rectCheckCases table.
func FuzzViewRectCheck(f *testing.F) {
	for _, tc := range rectCheckCases(f) {
		f.Add(tc.page)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < HeaderSize {
			return
		}
		page := slices.Clone(in)
		binary.LittleEndian.PutUint16(page[0:], Magic)
		page[2] = Version
		v, err := MakeTrustedView(page)
		if err != nil {
			return
		}
		end := HeaderSize + v.Count()*EntrySize(v.Dims())
		binary.LittleEndian.PutUint32(page[8:], crc32.ChecksumIEEE(page[HeaderSize:end]))
		checkParsersAgree(t, page)
	})
}

// checkParsersAgree is the fuzz targets' check of one page: MakeView and
// Unmarshal accept and reject alike — the same sentinel and the same
// message — and on an accepted page every accessor and kernel matches the
// materialized node.
func checkParsersAgree(t *testing.T, page []byte) {
	var n Node
	uErr := Unmarshal(page, &n)
	v, vErr := MakeView(page)
	checkTrustedView(t, page, v, vErr)

	if (uErr == nil) != (vErr == nil) {
		t.Fatalf("acceptance disagrees: Unmarshal err %v, MakeView err %v", uErr, vErr)
	}
	if uErr != nil {
		// Same sentinel class on rejection, and the same diagnostic.
		for _, sentinel := range []error{ErrBadMagic, ErrBadVersion, ErrBadChecksum, ErrCorrupt} {
			if errors.Is(uErr, sentinel) != errors.Is(vErr, sentinel) {
				t.Fatalf("rejection class disagrees for %v: Unmarshal %v, MakeView %v", sentinel, uErr, vErr)
			}
		}
		if uErr.Error() != vErr.Error() {
			t.Fatalf("rejection message disagrees: Unmarshal %q, MakeView %q", uErr, vErr)
		}
		return
	}

	// Accepted: every accessor must match the materialized node.
	if v.Level() != n.Level || v.Dims() != n.Dims || v.Count() != len(n.Entries) {
		t.Fatalf("header disagrees: view (%d,%d,%d), node (%d,%d,%d)",
			v.Level(), v.Dims(), v.Count(), n.Level, n.Dims, len(n.Entries))
	}
	for i, e := range n.Entries {
		if v.EntryRef(i) != e.Ref {
			t.Fatalf("entry %d ref disagrees", i)
		}
		if !v.EntryRect(i).Equal(e.Rect) {
			t.Fatalf("entry %d rect disagrees", i)
		}
		for d := 0; d < n.Dims; d++ {
			//strlint:ignore floateq decode must be bit-exact
			if v.EntryMin(i, d) != e.Rect.Min[d] || v.EntryMax(i, d) != e.Rect.Max[d] {
				t.Fatalf("entry %d axis %d disagrees", i, d)
			}
		}
	}
	checkScan(t, v, n.Entries, geom.Rect{Min: make(geom.Point, n.Dims), Max: make(geom.Point, n.Dims)})
	for i := 0; i < len(n.Entries); i += 1 + len(n.Entries)/4 {
		e := n.Entries[i]
		checkScan(t, v, n.Entries, e.Rect)
		checkScan(t, v, n.Entries, geom.Rect{Min: e.Rect.Max, Max: e.Rect.Max})
		checkDists(t, v, e.Rect.Min)
	}
}

// checkTrustedView holds MakeTrustedView to what its callers rely on. It
// skips the payload checks, so it accepts pages MakeView rejects — garbage
// entries behind a sane header — and on any page it accepts, every accessor
// must stay inside the page for i < Count() (a panic fails the fuzz run).
// It shares MakeView's header gates, so it accepts every page MakeView
// accepts, with the same level, dims and count, and a page it rejects
// MakeView rejects with the same sentinel.
func checkTrustedView(t *testing.T, page []byte, v View, vErr error) {
	tv, tErr := MakeTrustedView(page)
	if tErr != nil {
		for _, sentinel := range []error{ErrBadMagic, ErrBadVersion, ErrBadChecksum, ErrCorrupt} {
			if errors.Is(tErr, sentinel) != errors.Is(vErr, sentinel) {
				t.Fatalf("header gate disagrees for %v: MakeTrustedView %v, MakeView %v", sentinel, tErr, vErr)
			}
		}
		return
	}
	if vErr == nil && (tv.Level() != v.Level() || tv.Dims() != v.Dims() || tv.Count() != v.Count()) {
		t.Fatalf("header disagrees: trusted (%d,%d,%d), validated (%d,%d,%d)",
			tv.Level(), tv.Dims(), tv.Count(), v.Level(), v.Dims(), v.Count())
	}
	dims := tv.Dims()
	q := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	scratch := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	var coords []float64
	for i := 0; i < tv.Count(); i++ {
		_, _ = tv.EntryRef(i), tv.EntryID(i)
		for d := 0; d < dims; d++ {
			_, _ = tv.EntryMin(i, d), tv.EntryMax(i, d)
		}
		_ = tv.EntryRect(i)
		tv.EntryRectInto(i, &scratch)
		coords = tv.AppendEntryCoords(coords[:0], i)
		_ = tv.MinDist(q.Min, i)
	}
	// Unvalidated words, NaNs included: the page kernels still stay on the
	// page and still agree with the per-entry accessors, bit for bit.
	checkScan(t, tv, nil, q)
	checkDists(t, tv, q.Min)
	if tv.Count() > 0 {
		checkScan(t, tv, nil, scratch) // the last entry's words as the query
		checkDists(t, tv, scratch.Max) // and as the point
		tv.MBRInto(&scratch)
		got := make([]byte, EntrySize(dims))
		PutRecord(got, scratch, tv.EntryRef(0))
		if want := recordsMBR(tv.records(), dims); !slices.Equal(got, want) {
			t.Fatalf("dims %d count %d: MBRInto wrote % x, the word loop % x", dims, tv.Count(), got, want)
		}
	}
	_, _ = tv.IsLeaf(), coords
}
