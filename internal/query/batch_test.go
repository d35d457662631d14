package query_test

import (
	"fmt"
	"sort"
	"testing"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/query"
)

// matches lists the indices of the rectangles in items that q intersects,
// by linear scan — the oracle a batch is checked against.
func matches(items []geom.Rect, q geom.Rect) []int {
	var out []int
	for j, r := range items {
		if q.Intersects(r) {
			out = append(out, j)
		}
	}
	return out
}

// grid returns n*n unit cells tiling [0,n)x[0,n).
func grid(n int) []geom.Rect {
	out := make([]geom.Rect, 0, n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			out = append(out, geom.R2(float64(x), float64(y), float64(x)+1, float64(y)+1))
		}
	}
	return out
}

// gridTree packs the cells into a small-node tree, each item's ID its
// index in cells. Each of its four buffer shards holds 8 frames, one for
// each of the most workers a test here runs (Options.BufferShards: a
// shard must cover the pages pinned at once, one a querying goroutine).
func gridTree(t *testing.T, cells []geom.Rect) *strtree.Tree {
	t.Helper()
	tree, err := strtree.New(strtree.Options{Capacity: 8, BufferPages: 32, BufferShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]strtree.Item, len(cells))
	for j, r := range cells {
		items[j] = strtree.Item{ID: uint64(j), Rect: r}
	}
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestBatchRunMatchesSequentialOracle runs a batch of this package's
// region queries, scaled to the grid's extent, through SearchBatch at every
// worker count (0: GOMAXPROCS): one list per query in input order, each
// the cells a linear scan finds.
func TestBatchRunMatchesSequentialOracle(t *testing.T) {
	items := grid(16)
	tree := gridTree(t, items)
	qs := query.Regions(64, 0.3, 7)
	// Scale paper-space queries up to the grid's extent.
	for i := range qs {
		r, err := geom.NewRect(
			geom.Pt2(qs[i].Min[0]*16, qs[i].Min[1]*16),
			geom.Pt2(qs[i].Max[0]*16, qs[i].Max[1]*16),
		)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = r
	}
	for _, workers := range []int{0, 1, 3, 8} {
		lists, err := tree.SearchBatch(qs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(lists) != len(qs) {
			t.Fatalf("workers=%d: %d lists for %d queries", workers, len(lists), len(qs))
		}
		for i, q := range qs {
			got := make([]int, len(lists[i]))
			for k, it := range lists[i] {
				if !it.Rect.Equal(items[it.ID]) {
					t.Fatalf("workers=%d query %d: item %d is %v, want %v", workers, i, it.ID, it.Rect, items[it.ID])
				}
				got[k] = int(it.ID)
			}
			sort.Ints(got)
			if want := matches(items, q); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("workers=%d query %d: got %v, want %v", workers, i, got, want)
			}
		}
	}
}

// TestBatchRunCount pins SearchBatchCount on windows whose counts are known
// by construction.
func TestBatchRunCount(t *testing.T) {
	tree := gridTree(t, grid(8))
	qs := []geom.Rect{
		geom.R2(0, 0, 8, 8),     // everything
		geom.R2(0.5, 0.5, 1, 1), // one cell's interior plus 3 neighbors' edges
		geom.R2(-5, -5, -1, -1), // nothing
	}
	got, err := tree.SearchBatchCount(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{64, 4, 0}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
}
