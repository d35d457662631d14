package rtree

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
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

// runStream yields recs in runs of per records (the last one short), each
// copied into one buffer that the next call overwrites.
func runStream(recs []byte, per int) func() ([]byte, bool, error) {
	buf := make([]byte, per*node.EntrySize(2))
	return func() ([]byte, bool, error) {
		if len(recs) == 0 {
			return nil, false, nil
		}
		n := copy(buf, recs)
		recs = recs[n:]
		return buf[:n], true, nil
	}
}

// TestBulkLoadOrderedMatchesBulkLoad streams BulkLoad's leaf order in runs
// of every shape about a chunk of runPages leaves: runs shorter than a
// chunk, which the loader copies; runs of whole chunks, which it packs
// where they lie; and runs that straddle a boundary, whose tails it carries
// into the next run's chunk. Each shape, at one worker and at four, writes
// BulkLoad's page bytes through BulkLoad's pager calls — the same first
// page and page count per call, in the same order.
func TestBulkLoadOrderedMatchesBulkLoad(t *testing.T) {
	const capacity = 8
	entries := randRects(3000, 81)
	recs, _ := psort.Encode(entries, 1)
	recs = xSortOrderer{}.OrderRecords(recs, 2, capacity)
	chunk := runPages * capacity
	build := func(workers int, load func(*Tree) error) ([][2]int, uint64) {
		log := &callLog{Pager: storage.NewMemPager(4096)}
		tr, err := Create(buffer.NewPool(log, 64), Config{Dims: 2, Capacity: capacity, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := load(tr); err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(CheckConfig{}); err != nil {
			t.Fatal(err)
		}
		return log.calls, pagerDigest(t, tr)
	}
	wantCalls, want := build(1, func(tr *Tree) error { return tr.BulkLoad(entries, xSortOrderer{}) })
	if leaves := len(entries) / capacity; leaves < 5*runPages {
		t.Fatalf("%d leaves, too few chunks to straddle", leaves)
	}
	for _, per := range []int{1, chunk - 1, chunk, chunk + 1, 5 * chunk / 2, len(entries)} {
		for _, workers := range []int{1, 4} {
			calls, got := build(workers, func(tr *Tree) error {
				return tr.BulkLoadOrdered(runStream(recs, per), xSortOrderer{})
			})
			if !slices.Equal(calls, wantCalls) {
				t.Errorf("runs of %d records, workers %d: pager calls %v, BulkLoad's %v", per, workers, calls, wantCalls)
			}
			if got != want {
				t.Errorf("runs of %d records, workers %d: digest %#016x, BulkLoad's %#016x", per, workers, got, want)
			}
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
