package rtree

import (
	"errors"
	"math"
	"strings"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// sliceStream yields entries as page records, each a fresh slice of one
// array holding them all.
func sliceStream(entries []node.Entry) func() ([]byte, bool, error) {
	var recs []byte
	for _, e := range entries {
		recs = node.AppendRecord(recs, e.Rect, e.Ref)
	}
	i := 0
	return func() ([]byte, bool, error) {
		if i == len(entries) {
			return nil, false, nil
		}
		size := node.EntrySize(entries[i].Rect.Dim())
		rec := recs[:size:size]
		recs, i = recs[size:], i+1
		return rec, true, nil
	}
}

func TestBulkLoadOrderedMatchesBulkLoad(t *testing.T) {
	entries := randRects(1234, 81)
	ordered := append([]node.Entry(nil), entries...)
	xSortOrderer{}.Order(ordered, 16, 0)

	a := newTree(t, 16)
	if err := a.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	b := newTree(t, 16)
	if err := b.BulkLoadOrdered(sliceStream(ordered), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != a.Len() || b.Height() != a.Height() {
		t.Fatalf("stream build: len %d/%d height %d/%d", b.Len(), a.Len(), b.Height(), a.Height())
	}
	if err := b.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Rect{
		geom.R2(0, 0, 0.3, 0.3), geom.R2(0.4, 0.4, 0.8, 0.9), geom.UnitSquare(),
	} {
		ca, err := a.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb {
			t.Fatalf("counts differ for %v: %d vs %d", q, ca, cb)
		}
	}
}

// TestBulkLoadOrderedSourceMayReuseRect: a source may yield every record in
// one buffer it overwrites between calls. The loader copies each record
// into its run of leaves as it arrives, so the file is the one a source of
// fresh records gives, at one worker and at two alike.
func TestBulkLoadOrderedSourceMayReuseRect(t *testing.T) {
	entries := randRects(3000, 83)
	xSortOrderer{}.Order(entries, 16, 0)
	for _, workers := range []int{1, 2} {
		build := func(next func() ([]byte, bool, error)) uint64 {
			tr, err := Create(buffer.NewPool(storage.NewMemPager(4096), 64), Config{Dims: 2, Capacity: 16, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoadOrdered(next, xSortOrderer{}); err != nil {
				t.Fatal(err)
			}
			return pagerDigest(t, tr)
		}
		scratch := make([]byte, node.EntrySize(2))
		i := 0
		reusing := func() ([]byte, bool, error) {
			if i == len(entries) {
				return nil, false, nil
			}
			node.PutRecord(scratch, entries[i].Rect, entries[i].Ref)
			i++
			return scratch, true, nil
		}
		if want, got := build(sliceStream(entries)), build(reusing); got != want {
			t.Fatalf("workers %d: a source reusing one buffer wrote digest %#016x, fresh records %#016x", workers, got, want)
		}
	}
}

func TestBulkLoadOrderedEmptyAndErrors(t *testing.T) {
	tr := newTree(t, 8)
	if err := tr.BulkLoadOrdered(sliceStream(nil), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 0 {
		t.Fatalf("empty stream built height %d", tr.Height())
	}
	// Non-empty tree rejected.
	if err := tr.Insert(geom.R2(0, 0, 0.1, 0.1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoadOrdered(sliceStream(randRects(5, 82)), xSortOrderer{}); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
	// Stream error propagates.
	tr2 := newTree(t, 8)
	boom := errors.New("boom")
	good := sliceStream(randRects(3, 84))
	err := tr2.BulkLoadOrdered(func() ([]byte, bool, error) {
		if rec, ok, _ := good(); ok {
			return rec, true, nil
		}
		return nil, false, boom
	}, xSortOrderer{})
	if !errors.Is(err, boom) {
		t.Fatalf("stream error lost: %v", err)
	}
	// Bad records rejected: a 3-D one, and 2-D ones the stride check
	// refuses — an inverted side and a NaN on either side of one.
	nan := math.NaN()
	for name, bad := range map[string]geom.Rect{
		"3-D":      geom.UnitCube(3),
		"inverted": {Min: geom.Point{0, 0.5}, Max: geom.Point{1, 0.25}},
		"NaN low":  {Min: geom.Point{0, nan}, Max: geom.Point{1, 1}},
		"NaN high": {Min: geom.Point{0, 0}, Max: geom.Point{nan, 1}},
		"NaN both": {Min: geom.Point{nan, 0}, Max: geom.Point{nan, 1}},
	} {
		tr3 := newTree(t, 8)
		entries := append(randRects(20, 85), node.Entry{Rect: bad, Ref: 1})
		if err := tr3.BulkLoadOrdered(sliceStream(entries), xSortOrderer{}); err == nil || !strings.HasPrefix(err.Error(), "entry 20: ") {
			t.Fatalf("%s record: got error %v, want one naming entry 20", name, err)
		}
	}
}

func TestBulkLoadOrderedUtilization(t *testing.T) {
	ordered := randRects(1000, 83)
	xSortOrderer{}.Order(ordered, 10, 0)
	tr := newTree(t, 10)
	if err := tr.BulkLoadOrdered(sliceStream(ordered), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	perLevel, err := tr.NodesPerLevel()
	if err != nil {
		t.Fatal(err)
	}
	if len(perLevel) != 3 || perLevel[2] != 100 {
		t.Fatalf("NodesPerLevel = %v", perLevel)
	}
}
