package rtree

import (
	"math/rand"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

func TestSplitRStarRespectsMinFill(t *testing.T) {
	entries := randRects(33, 71)
	left, right := splitRStar(entries, 13)
	if len(left)+len(right) != 33 {
		t.Fatalf("split lost entries: %d + %d", len(left), len(right))
	}
	if len(left) < 13 || len(right) < 13 {
		t.Fatalf("min fill violated: %d / %d", len(left), len(right))
	}
	// No entry duplicated or dropped.
	seen := map[uint64]bool{}
	for _, e := range append(append([]node.Entry(nil), left...), right...) {
		if seen[e.Ref] {
			t.Fatalf("ref %d duplicated", e.Ref)
		}
		seen[e.Ref] = true
	}
}

func TestSplitRStarSeparatesClusters(t *testing.T) {
	// Two well-separated clusters must end up in different groups with
	// zero overlap.
	var entries []node.Entry
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 10; i++ {
		x, y := rng.Float64()*0.1, rng.Float64()*0.1
		entries = append(entries, node.Entry{Rect: geom.R2(x, y, x+0.01, y+0.01), Ref: uint64(i)})
	}
	for i := 10; i < 20; i++ {
		x, y := 0.8+rng.Float64()*0.1, 0.8+rng.Float64()*0.1
		entries = append(entries, node.Entry{Rect: geom.R2(x, y, x+0.01, y+0.01), Ref: uint64(i)})
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	left, right := splitRStar(entries, 5)
	lm := geom.MBR(rects(left))
	rm := geom.MBR(rects(right))
	if lm.Intersects(rm) {
		t.Fatalf("R* split left overlapping groups: %v and %v", lm, rm)
	}
	// Each group holds exactly one cluster.
	for _, e := range left {
		if (e.Ref < 10) != (left[0].Ref < 10) {
			t.Fatal("clusters mixed within the left group")
		}
	}
}

func TestInsertWithRStarSplit(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 256)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 8, Split: SplitRStar})
	if err != nil {
		t.Fatal(err)
	}
	entries := randRects(600, 73)
	for _, e := range entries {
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	checkSearchAgainstBrute(t, tr, entries, 74)
	if SplitRStar.String() != "rstar" {
		t.Fatalf("String = %q", SplitRStar.String())
	}
}

func TestRStarBeatsLinearOnOverlap(t *testing.T) {
	// Build identical data with the default split (Guttman's linear one when
	// the test was named, the tile cut since PR 24) and with R*; the R*
	// tree's total leaf area (overlap proxy) should not exceed the default
	// tree's by much, and usually improves it.
	entries := randRects(2000, 75)
	build := func(split SplitAlgorithm) float64 {
		pool := buffer.NewPool(storage.NewMemPager(4096), 1024)
		tr, err := Create(pool, Config{Dims: 2, Capacity: 16, Split: split})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := tr.Insert(e.Rect, e.Ref); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Check(CheckConfig{}); err != nil {
			t.Fatal(err)
		}
		area := 0.0
		mbr := geom.R2(0, 0, 0, 0)
		if err := tr.Walk(func(_ storage.PageID, v node.View) bool {
			if v.IsLeaf() {
				v.MBRInto(&mbr)
				area += mbr.Area()
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return area
	}
	tile := build(SplitTile)
	rstar := build(SplitRStar)
	if rstar > tile*1.05 {
		t.Fatalf("R* leaf area %.4f worse than the tile cut's %.4f", rstar, tile)
	}
}

func TestSearchWithin(t *testing.T) {
	tr := newTree(t, 8)
	entries := []node.Entry{
		{Rect: geom.R2(0.1, 0.1, 0.2, 0.2), Ref: 1},    // inside q
		{Rect: geom.R2(0.25, 0.25, 0.5, 0.5), Ref: 2},  // straddles q's edge
		{Rect: geom.R2(0.7, 0.7, 0.8, 0.8), Ref: 3},    // outside q
		{Rect: geom.R2(0.3, 0.05, 0.35, 0.45), Ref: 4}, // straddles q's top edge
	}
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	q := geom.R2(0.0, 0.0, 0.4, 0.4)
	var within []uint64
	if err := tr.SearchWithin(q, func(e node.Entry) bool {
		within = append(within, e.Ref)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(within) != 1 || within[0] != 1 {
		t.Fatalf("SearchWithin = %v, want [1]", within)
	}
	// Intersection search over the same window sees three.
	n, err := tr.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("intersection count = %d, want 3", n)
	}
}

func TestSearchWithinMatchesBrute(t *testing.T) {
	tr := newTree(t, 8)
	entries := randRects(400, 76)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		x, y := rng.Float64()*0.7, rng.Float64()*0.7
		q := geom.R2(x, y, x+0.3, y+0.3)
		want := 0
		for _, e := range entries {
			if q.Contains(e.Rect) {
				want++
			}
		}
		got := 0
		if err := tr.SearchWithin(q, func(node.Entry) bool { got++; return true }); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: within = %d, want %d", trial, got, want)
		}
	}
}
