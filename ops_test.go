package strtree

import (
	"errors"
	"math"
	"testing"

	"strtree/internal/node"
	"strtree/internal/storage"
)

func TestNearestPublic(t *testing.T) {
	tree, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(800, 21)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	p := Pt2(0.5, 0.5)
	got, dists, err := tree.NearestK(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || len(dists) != 5 {
		t.Fatalf("NearestK returned %d items, %d dists", len(got), len(dists))
	}
	for i := 1; i < 5; i++ {
		if dists[i] < dists[i-1] {
			t.Fatalf("distances unsorted: %v", dists)
		}
	}
	// A smaller k answers with a prefix of the larger one.
	head, headDists, err := tree.NearestK(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range head {
		//strlint:ignore floateq both calls run the identical float sequence
		if head[i].ID != got[i].ID || headDists[i] != dists[i] {
			t.Fatalf("NearestK(3)[%d] = %d at %g, NearestK(5)[%d] = %d at %g",
				i, head[i].ID, headDists[i], i, got[i].ID, dists[i])
		}
	}
}

func TestJoinPublic(t *testing.T) {
	build := func(seed int64, n int) (*Tree, []Item) {
		tree, err := New(Options{Capacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		items := randItems(n, seed)
		if err := tree.BulkLoad(items, PackSTR); err != nil {
			t.Fatal(err)
		}
		return tree, items
	}
	ta, ia := build(22, 300)
	tb, ib := build(23, 250)
	want := 0
	for _, a := range ia {
		for _, b := range ib {
			if a.Rect.Intersects(b.Rect) {
				want++
			}
		}
	}
	got := 0
	if err := Join(ta, tb, func(a, b Item) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("join pairs = %d, want %d", got, want)
	}
}

func TestSelfJoinDistinctPairs(t *testing.T) {
	tree, err := New(Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(200, 24)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			if items[i].Rect.Intersects(items[j].Rect) {
				want++
			}
		}
	}
	got := 0
	if err := Join(tree, tree, func(a, b Item) bool {
		if a.ID < b.ID {
			got++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("self-join distinct pairs = %d, want %d", got, want)
	}
}

func TestScanAndItems(t *testing.T) {
	tree, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(300, 25)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	if err := tree.Scan(func(it Item) bool { seen[it.ID] = true; return true }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 300 {
		t.Fatalf("scan saw %d items", len(seen))
	}
	// Cloned rectangles outlive the scan.
	want := map[uint64]Rect{}
	for _, it := range items {
		want[it.ID] = it.Rect
	}
	for _, it := range scanItems(t, tree) {
		if !it.Rect.Equal(want[it.ID]) {
			t.Fatalf("item %d: scanned %v, loaded %v", it.ID, it.Rect, want[it.ID])
		}
	}
}

func TestCompactIntoPublic(t *testing.T) {
	src, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(1000, 26)
	for _, it := range items {
		if err := src.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:500] {
		if _, err := src.Delete(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	srcM, err := src.Metrics()
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CompactInto(dst, PackSTR); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 500 {
		t.Fatalf("compacted len = %d", dst.Len())
	}
	dstM, err := dst.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if dstM.LeafNodes >= srcM.LeafNodes {
		t.Fatalf("compaction grew leaves: %d -> %d", srcM.LeafNodes, dstM.LeafNodes)
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Unknown packing propagates.
	empty, _ := New(Options{})
	if err := src.CompactInto(empty, Packing(77)); err == nil {
		t.Fatal("bad packing accepted")
	}
}

func TestBounds(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tree.Bounds(); err != nil || ok {
		t.Fatalf("empty tree bounds: ok=%v err=%v", ok, err)
	}
	if err := tree.Insert(R2(0.2, 0.3, 0.4, 0.5), 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.7, 0.1, 0.9, 0.2), 2); err != nil {
		t.Fatal(err)
	}
	b, ok, err := tree.Bounds()
	if err != nil || !ok {
		t.Fatalf("bounds: ok=%v err=%v", ok, err)
	}
	if !b.Equal(R2(0.2, 0.1, 0.9, 0.5)) {
		t.Fatalf("bounds = %v", b)
	}
}

func TestNearestDistanceValues(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.2, 0.2, 0.3, 0.3), 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.8, 0.8, 0.9, 0.9), 2); err != nil {
		t.Fatal(err)
	}
	items, dists, err := tree.NearestK(Pt2(0.25, 0.25), 2)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].ID != 1 || dists[0] != 0 {
		t.Fatalf("first hit = %+v at %g", items[0], dists[0])
	}
	wantD := math.Hypot(0.8-0.25, 0.8-0.25)
	if items[1].ID != 2 || math.Abs(dists[1]-wantD) > 1e-12 {
		t.Fatalf("second hit = %+v at %g, want %g", items[1], dists[1], wantD)
	}
}

func mustTree(t *testing.T, opts Options) *Tree {
	t.Helper()
	tree, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestWholeTreeReadersRejectLyingPages crafts pages that carry a valid CRC
// but lie about the structure — a leaf claiming a level above the root, a
// root referencing itself — and holds every whole-tree reader of the public
// API to a clean error wrapping node.ErrCorrupt. Before the walker checked
// levels the first panicked inside the walk's callers and the second
// recursed until the stack overflowed.
func TestWholeTreeReadersRejectLyingPages(t *testing.T) {
	rewrite := func(t *testing.T, tree *Tree, id storage.PageID, mutate func(n *node.Node)) {
		t.Helper()
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		pager := tree.pool.Pager()
		buf := make([]byte, pager.PageSize())
		if err := pager.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		var n node.Node
		if err := node.Unmarshal(buf, &n); err != nil {
			t.Fatal(err)
		}
		mutate(&n)
		if err := node.Marshal(&n, buf); err != nil {
			t.Fatal(err)
		}
		if err := pager.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := tree.DropCaches(); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(t *testing.T, tree *Tree){
		"wrong level": func(t *testing.T, tree *Tree) {
			// Page 1 is the first leaf a bulk load writes.
			rewrite(t, tree, 1, func(n *node.Node) { n.Level = tree.Height() + 3 })
		},
		"self reference": func(t *testing.T, tree *Tree) {
			root := tree.inner.Root()
			rewrite(t, tree, root, func(n *node.Node) { n.Entries[0].Ref = uint64(root) })
		},
	}
	for name, craft := range cases {
		t.Run(name, func(t *testing.T) {
			tree := mustTree(t, Options{Capacity: 4})
			if err := tree.BulkLoad(randItems(64, 75), PackSTR); err != nil {
				t.Fatal(err)
			}
			craft(t, tree)
			_, metricsErr := tree.Metrics()
			_, utilErr := tree.Utilization()
			for reader, err := range map[string]error{
				"CheckInvariants":       tree.CheckInvariants(),
				"CheckPackedInvariants": tree.CheckPackedInvariants(),
				"Metrics":               metricsErr,
				"Utilization":           utilErr,
			} {
				if !errors.Is(err, node.ErrCorrupt) {
					t.Errorf("%s: want an error wrapping node.ErrCorrupt, got: %v", reader, err)
				}
			}
		})
	}
}
