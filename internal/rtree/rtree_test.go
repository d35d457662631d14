package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// xSortOrderer is a minimal packing order (sort by center x) sufficient to
// exercise BulkLoad; the real algorithms live in internal/pack.
type xSortOrderer struct{}

func (xSortOrderer) Name() string { return "xsort" }
func (xSortOrderer) Order(entries []node.Entry, n, level int) {
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect.CenterAxis(0) < entries[j].Rect.CenterAxis(0)
	})
}

func newTree(t testing.TB, capacity int) *Tree {
	t.Helper()
	pool := buffer.NewPool(storage.NewMemPager(4096), 256)
	tr, err := Create(pool, Config{Dims: 2, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randRects(n int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]node.Entry, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.02, rng.Float64()*0.02
		r, _ := geom.NewRect(geom.Pt2(x, y), geom.Pt2(x+w, y+h))
		out[i] = node.Entry{Rect: r, Ref: uint64(i)}
	}
	return out
}

// bruteSearch returns the refs of entries intersecting q.
func bruteSearch(entries []node.Entry, q geom.Rect) map[uint64]bool {
	out := map[uint64]bool{}
	for _, e := range entries {
		if q.Intersects(e.Rect) {
			out[e.Ref] = true
		}
	}
	return out
}

// treeSearch returns the refs the tree reports for q.
func treeSearch(t *testing.T, tr *Tree, q geom.Rect) map[uint64]bool {
	t.Helper()
	out := map[uint64]bool{}
	if err := tr.Search(q, func(e node.Entry) bool {
		out[e.Ref] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkSearchAgainstBrute(t *testing.T, tr *Tree, entries []node.Entry, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 50; i++ {
		x, y := rng.Float64(), rng.Float64()
		e := rng.Float64() * 0.3
		q, _ := geom.NewRect(geom.Pt2(x, y), geom.UnitSquare().Clamp(geom.Pt2(x+e, y+e)))
		want := bruteSearch(entries, q)
		got := treeSearch(t, tr, q)
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d results, want %d", q, len(got), len(want))
		}
		for ref := range want {
			if !got[ref] {
				t.Fatalf("query %v: missing ref %d", q, ref)
			}
		}
	}
}

func TestCreateValidation(t *testing.T) {
	mk := func() *buffer.Pool { return buffer.NewPool(storage.NewMemPager(4096), 16) }
	if _, err := Create(mk(), Config{Dims: 0}); err == nil {
		t.Error("dims 0 accepted")
	}
	if _, err := Create(mk(), Config{Dims: 2, Capacity: 1}); err == nil {
		t.Error("capacity 1 accepted")
	}
	if _, err := Create(mk(), Config{Dims: 2, Capacity: 500}); err == nil {
		t.Error("capacity beyond page accepted")
	}
	if _, err := Create(mk(), Config{Dims: 2, Capacity: 100, MinFill: 90}); err == nil {
		t.Error("minFill > capacity/2 accepted")
	}
	// Defaults.
	tr, err := Create(mk(), Config{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Capacity() != 102 || tr.MinFill() != 40 {
		t.Errorf("defaults: capacity %d minFill %d", tr.Capacity(), tr.MinFill())
	}
	// Non-empty pager rejected.
	pool := mk()
	if _, err := pool.Create(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(pool, Config{Dims: 2}); err == nil {
		t.Error("non-empty pager accepted")
	}
}

func TestBulkLoadSmall(t *testing.T) {
	tr := newTree(t, 4)
	entries := randRects(37, 1)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 37 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// 37 items, cap 4: 10 leaves, 3 internal, 1 root -> height 3.
	if tr.Height() != 3 {
		t.Fatalf("Height = %d", tr.Height())
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	checkSearchAgainstBrute(t, tr, entries, 2)
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	tr := newTree(t, 4)
	if err := tr.BulkLoad(nil, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 0 || tr.Len() != 0 {
		t.Fatalf("empty load: height %d len %d", tr.Height(), tr.Len())
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := treeSearch(t, tr, geom.UnitSquare()); len(got) != 0 {
		t.Fatal("empty tree returned results")
	}

	tr2 := newTree(t, 4)
	one := randRects(1, 3)
	if err := tr2.BulkLoad(append([]node.Entry(nil), one...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if tr2.Height() != 1 || tr2.Len() != 1 {
		t.Fatalf("single load: height %d len %d", tr2.Height(), tr2.Len())
	}
	if err := tr2.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	tr := newTree(t, 4)
	if err := tr.Insert(geom.R2(0, 0, 0.1, 0.1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(randRects(5, 4), xSortOrderer{}); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestBulkLoadRejectsBadEntries(t *testing.T) {
	tr := newTree(t, 4)
	bad := []node.Entry{{Rect: geom.UnitCube(3), Ref: 1}}
	if err := tr.BulkLoad(bad, xSortOrderer{}); err == nil {
		t.Fatal("3-d entry accepted by 2-d tree")
	}
}

func TestBulkLoadUtilization(t *testing.T) {
	// Packed trees fill every node (except possibly the last per level) to
	// capacity: near-100% utilization, one of the paper's headline claims.
	tr := newTree(t, 10)
	entries := randRects(1000, 5)
	if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	perLevel, err := tr.NodesPerLevel()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 10, 100} // root, internal, leaves
	if len(perLevel) != 3 {
		t.Fatalf("levels = %v", perLevel)
	}
	for i := range want {
		if perLevel[i] != want[i] {
			t.Fatalf("NodesPerLevel = %v, want %v", perLevel, want)
		}
	}
	full := 0
	if err := tr.Walk(func(_ storage.PageID, v node.View) bool {
		if v.Count() == 10 {
			full++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if full != 111 {
		t.Fatalf("only %d of 111 nodes are full", full)
	}
}

func TestInsertSearchMatchesBrute(t *testing.T) {
	// Two rows, named for the Guttman splits they ran until the tile cut
	// displaced those (PR 24): the default now, cutting an odd and an even
	// number of entries (9 into 5/4, 10 into 5/5).
	for _, row := range []struct {
		name     string
		capacity int
	}{{"linear", 8}, {"quadratic", 9}} {
		t.Run(row.name, func(t *testing.T) {
			pool := buffer.NewPool(storage.NewMemPager(4096), 256)
			tr, err := Create(pool, Config{Dims: 2, Capacity: row.capacity})
			if err != nil {
				t.Fatal(err)
			}
			entries := randRects(500, 6)
			for _, e := range entries {
				if err := tr.Insert(e.Rect, e.Ref); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Len() != 500 {
				t.Fatalf("Len = %d", tr.Len())
			}
			if tr.Height() < 3 {
				t.Fatalf("height = %d, expected >= 3 with capacity %d", tr.Height(), row.capacity)
			}
			if err := tr.Check(CheckConfig{}); err != nil {
				t.Fatal(err)
			}
			checkSearchAgainstBrute(t, tr, entries, 7)
		})
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr := newTree(t, 4)
	if err := tr.Insert(geom.UnitCube(3), 1); err == nil {
		t.Fatal("3-d insert accepted")
	}
	if err := tr.Insert(geom.Rect{Min: geom.Pt2(1, 0), Max: geom.Pt2(0, 1)}, 1); err == nil {
		t.Fatal("invalid rect accepted")
	}
}

func TestDeleteHalf(t *testing.T) {
	tr := newTree(t, 8)
	entries := randRects(400, 8)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if i%2 == 0 {
			continue
		}
		ok, err := tr.Delete(e.Rect, e.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("entry %d not found for deletion", i)
		}
	}
	if tr.Len() != 200 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	var kept []node.Entry
	for i, e := range entries {
		if i%2 == 0 {
			kept = append(kept, e)
		}
	}
	checkSearchAgainstBrute(t, tr, kept, 9)

	// Deleting something absent reports false.
	ok, err := tr.Delete(geom.R2(0.9999, 0.9999, 1, 1), 424242)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("phantom delete succeeded")
	}
}

func TestDeleteAllEmptiesTree(t *testing.T) {
	tr := newTree(t, 4)
	entries := randRects(64, 10)
	for _, e := range entries {
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		ok, err := tr.Delete(e.Rect, e.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("ref %d not found", e.Ref)
		}
		if err := tr.Check(CheckConfig{}); err != nil {
			t.Fatalf("after deleting ref %d: %v", e.Ref, err)
		}
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("len %d height %d after deleting all", tr.Len(), tr.Height())
	}
	// Tree is reusable after emptying.
	if err := tr.Insert(entries[0].Rect, entries[0].Ref); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestMixedInsertDeleteAgainstReference(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 256)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	live := map[uint64]geom.Rect{}
	nextRef := uint64(0)
	for op := 0; op < 2000; op++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			x, y := rng.Float64(), rng.Float64()
			r, _ := geom.NewRect(geom.Pt2(x, y), geom.Pt2(x+rng.Float64()*0.05, y+rng.Float64()*0.05))
			if err := tr.Insert(r, nextRef); err != nil {
				t.Fatal(err)
			}
			live[nextRef] = r
			nextRef++
		} else {
			// Delete a random live entry.
			var ref uint64
			for ref = range live {
				break
			}
			ok, err := tr.Delete(live[ref], ref)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("live ref %d not found", ref)
			}
			delete(live, ref)
		}
		if op%100 == 99 {
			if err := tr.Check(CheckConfig{}); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("op %d: Len %d, want %d", op, tr.Len(), len(live))
			}
		}
	}
	// Final full check.
	var entries []node.Entry
	for ref, r := range live {
		entries = append(entries, node.Entry{Rect: r, Ref: ref})
	}
	checkSearchAgainstBrute(t, tr, entries, 12)
}

// TestDeleteDeepCollapseStress hammers a skinny tree (capacity 3,
// min fill 1) whose root collapses by multiple levels at once, which is
// the only path where a dissolved orphan subtree can sit above the new
// root and must itself be dissolved during reinsertion.
func TestDeleteDeepCollapseStress(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 512)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 3, MinFill: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(321))
	live := map[uint64]geom.Rect{}
	next := uint64(0)
	for round := 0; round < 6; round++ {
		// Grow tall.
		for i := 0; i < 120; i++ {
			x, y := rng.Float64(), rng.Float64()
			r := geom.R2(x, y, x, y)
			if err := tr.Insert(r, next); err != nil {
				t.Fatal(err)
			}
			live[next] = r
			next++
		}
		// Shrink almost to nothing, forcing repeated multi-level
		// collapses and orphan cascades.
		for len(live) > 3 {
			var ref uint64
			for ref = range live {
				break
			}
			ok, err := tr.Delete(live[ref], ref)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("live ref %d not found (entries lost)", ref)
			}
			delete(live, ref)
		}
		if err := tr.Check(CheckConfig{}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Len() != len(live) {
			t.Fatalf("round %d: Len %d, model %d", round, tr.Len(), len(live))
		}
		// Every survivor findable.
		for ref, r := range live {
			found := false
			if err := tr.Search(r, func(e node.Entry) bool {
				found = found || e.Ref == ref
				return !found
			}); err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("round %d: survivor %d unfindable", round, ref)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := newTree(t, 4)
	if err := tr.BulkLoad(randRects(100, 13), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := tr.Search(geom.UnitSquare(), func(node.Entry) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop visited %d entries", n)
	}
}

func TestCountAndAll(t *testing.T) {
	tr := newTree(t, 8)
	entries := randRects(200, 14)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	q := geom.R2(0.2, 0.2, 0.6, 0.6)
	want := len(bruteSearch(entries, q))
	got, err := tr.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	all, err := tr.All(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != want {
		t.Fatalf("All returned %d, want %d", len(all), want)
	}
}

func TestSearchPoint(t *testing.T) {
	tr := newTree(t, 4)
	if err := tr.Insert(geom.R2(0.2, 0.2, 0.4, 0.4), 7); err != nil {
		t.Fatal(err)
	}
	hits := 0
	if err := tr.SearchPoint(geom.Pt2(0.3, 0.3), func(e node.Entry) bool {
		hits++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("point query hits = %d", hits)
	}
	if err := tr.SearchPoint(geom.Pt2(0.9, 0.9), func(node.Entry) bool {
		t.Fatal("false positive")
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	pg, err := storage.CreateFilePager(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(pg, 64)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	entries := randRects(300, 15)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	pg2, err := storage.OpenFilePager(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	tr2, err := Open(buffer.NewPool(pg2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 300 || tr2.Capacity() != 16 || tr2.Dims() != 2 {
		t.Fatalf("reopened: len %d cap %d dims %d", tr2.Len(), tr2.Capacity(), tr2.Dims())
	}
	if err := tr2.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	checkSearchAgainstBrute(t, tr2, entries, 16)
}

func TestOpenRejectsGarbage(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 8)
	if _, err := Open(pool); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("open empty pager: %v", err)
	}
	f, err := pool.Create()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data(), []byte("not a tree"))
	pool.Release(f)
	if _, err := Open(pool); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("open garbage: %v", err)
	}
}

func TestDiskAccessCounting(t *testing.T) {
	// A cold point query on a packed tree of height 3 where exactly one
	// path matches must read exactly 3 pages; re-running it warm must read
	// zero.
	pool := buffer.NewPool(storage.NewMemPager(4096), 128)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 64 tiny, well-separated boxes on a 8x8 grid.
	var entries []node.Entry
	for i := 0; i < 64; i++ {
		x := float64(i%8) / 8
		y := float64(i/8) / 8
		entries = append(entries, node.Entry{
			Rect: geom.R2(x+0.01, y+0.01, x+0.02, y+0.02),
			Ref:  uint64(i),
		})
	}
	if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Fatalf("height = %d", tr.Height())
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if _, err := tr.Count(geom.R2(0.015, 0.015, 0.016, 0.016)); err != nil {
		t.Fatal(err)
	}
	cold := pool.Stats().DiskReads
	if cold < 3 || cold > 4 {
		t.Fatalf("cold accesses = %d, want 3 (one path) or 4 (one MBR overlap)", cold)
	}
	pool.ResetStats()
	if _, err := tr.Count(geom.R2(0.015, 0.015, 0.016, 0.016)); err != nil {
		t.Fatal(err)
	}
	if warm := pool.Stats().DiskReads; warm != 0 {
		t.Fatalf("warm accesses = %d, want 0", warm)
	}
}

func TestWalkStops(t *testing.T) {
	tr := newTree(t, 4)
	if err := tr.BulkLoad(randRects(100, 17), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	visits := 0
	if err := tr.Walk(func(storage.PageID, node.View) bool {
		visits++
		return visits < 3
	}); err != nil {
		t.Fatal(err)
	}
	if visits != 3 {
		t.Fatalf("walk visited %d nodes after stop", visits)
	}
}

func TestUtilization(t *testing.T) {
	tr := newTree(t, 10)
	if u, err := tr.Utilization(); err != nil || u != 0 {
		t.Fatalf("empty tree utilization %g err %v", u, err)
	}
	if err := tr.BulkLoad(randRects(1000, 90), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	u, err := tr.Utilization()
	if err != nil {
		t.Fatal(err)
	}
	if u != 1.0 {
		t.Fatalf("packed utilization = %g, want 1.0", u)
	}
	// Dynamic tree sits lower.
	dyn := newTree(t, 10)
	for _, e := range randRects(1000, 91) {
		if err := dyn.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	du, err := dyn.Utilization()
	if err != nil {
		t.Fatal(err)
	}
	if du >= 0.95 || du < 0.4 {
		t.Fatalf("dynamic utilization = %g, expected mid-range", du)
	}
}

func TestBoundsInternal(t *testing.T) {
	tr := newTree(t, 4)
	if _, ok, err := tr.Bounds(); err != nil || ok {
		t.Fatal("empty tree has bounds")
	}
	entries := randRects(50, 92)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	b, ok, err := tr.Bounds()
	if err != nil || !ok {
		t.Fatalf("bounds: %v %v", ok, err)
	}
	var rects []geom.Rect
	for _, e := range entries {
		rects = append(rects, e.Rect)
	}
	if want := geom.MBR(rects); !b.Equal(want) {
		t.Fatalf("bounds %v, want %v", b, want)
	}
}

func TestNumNodes(t *testing.T) {
	tr := newTree(t, 10)
	if err := tr.BulkLoad(randRects(1000, 18), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	n, err := tr.NumNodes()
	if err != nil {
		t.Fatal(err)
	}
	if n != 111 {
		t.Fatalf("NumNodes = %d, want 111", n)
	}
}

func TestSplitDistributionRespectsMinFill(t *testing.T) {
	// Pathological input: identical rectangles, which stress the
	// tie-breaking paths. The tile cut through the tree, at the default
	// minimum fill and at the largest legal one, capacity/2.
	for _, minFill := range []int{4, 5} {
		t.Run(fmt.Sprintf("tile/minfill=%d", minFill), func(t *testing.T) {
			pool := buffer.NewPool(storage.NewMemPager(4096), 256)
			tr, err := Create(pool, Config{Dims: 2, Capacity: 10, MinFill: minFill})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if err := tr.Insert(geom.R2(0.5, 0.5, 0.6, 0.6), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Check(CheckConfig{}); err != nil {
				t.Fatal(err)
			}
			short := 0
			if err := tr.Walk(func(id storage.PageID, v node.View) bool {
				if id != tr.Root() && v.Count() < minFill {
					short++
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if short > 0 {
				t.Fatalf("%d nodes below min fill", short)
			}
		})
	}
	// The Guttman baselines (guttman_test.go), held to the same contract on
	// the same input so what the tile cut is compared with stays sound.
	for name, split := range map[string]func([]node.Entry, int) ([]node.Entry, []node.Entry){
		"linear": splitLinear, "quadratic": splitQuadratic,
	} {
		t.Run(name, func(t *testing.T) {
			entries := make([]node.Entry, 11)
			for i := range entries {
				entries[i] = node.Entry{Rect: geom.R2(0.5, 0.5, 0.6, 0.6), Ref: uint64(i)}
			}
			left, right := split(entries, 4)
			if len(left) < 4 || len(right) < 4 || len(left)+len(right) != len(entries) {
				t.Fatalf("11 entries split %d/%d with min fill 4", len(left), len(right))
			}
		})
	}
}

func TestFreePageRecycling(t *testing.T) {
	tr := newTree(t, 4)
	entries := randRects(100, 19)
	for _, e := range entries {
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	grown := tr.pool.Pager().NumPages()
	// Delete everything, then insert everything again: page count should
	// not grow much beyond the original, because freed pages are recycled.
	for _, e := range entries {
		if _, err := tr.Delete(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	if after := tr.pool.Pager().NumPages(); after > grown+grown/2 {
		t.Fatalf("pages grew from %d to %d despite free list", grown, after)
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaPersistsFreeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "free.db")
	pg, err := storage.CreateFilePager(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(pg, 64)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	entries := randRects(50, 20)
	for _, e := range entries {
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries[:25] {
		if _, err := tr.Delete(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	freeBefore := len(tr.free)
	if freeBefore == 0 {
		t.Fatal("expected some freed pages")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	pg.Close()

	pg2, err := storage.OpenFilePager(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	tr2, err := Open(buffer.NewPool(pg2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.free) != freeBefore {
		t.Fatalf("free list: %d persisted, %d before", len(tr2.free), freeBefore)
	}
	if err := tr2.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoad3D(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 128)
	tr, err := Create(pool, Config{Dims: 3, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var entries []node.Entry
	for i := 0; i < 300; i++ {
		lo := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		hi := geom.Point{lo[0] + 0.01, lo[1] + 0.01, lo[2] + 0.01}
		entries = append(entries, node.Entry{Rect: geom.Rect{Min: lo, Max: hi}, Ref: uint64(i)})
	}
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	// Brute-force check on a few 3-D queries.
	for i := 0; i < 20; i++ {
		lo := geom.Point{rng.Float64() * 0.8, rng.Float64() * 0.8, rng.Float64() * 0.8}
		hi := geom.Point{lo[0] + 0.2, lo[1] + 0.2, lo[2] + 0.2}
		q := geom.Rect{Min: lo, Max: hi}
		want := len(bruteSearch(entries, q))
		got, err := tr.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("3-d query %d: got %d, want %d", i, got, want)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	tr := newTree(t, 4)
	if err := tr.BulkLoad(randRects(64, 22), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	// Corrupt: inflate the root's first entry rectangle.
	var root node.Node
	if err := tr.unmarshalNode(tr.Root(), &root); err != nil {
		t.Fatal(err)
	}
	root.Entries[0].Rect = geom.UnitSquare().Clone()
	if err := tr.fillPage(tr.Root(), false, &root); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(CheckConfig{}); err == nil {
		t.Fatal("validation passed on corrupted tree")
	}
}

func TestTreeAccessors(t *testing.T) {
	tr := newTree(t, 8)
	if tr.Dims() != 2 || tr.Pool() == nil || tr.Root() != storage.NilPage {
		t.Fatal("accessor values wrong on empty tree")
	}
	_ = fmt.Sprintf("%v", tr.Root())
}

func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	pool := buffer.NewPool(storage.NewMemPager(4096), 1024)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 100})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64(), rng.Float64()
		if err := tr.Insert(geom.R2(x, y, x, y), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool := buffer.NewPool(storage.NewMemPager(4096), 1024)
		tr, err := Create(pool, Config{Dims: 2, Capacity: 100})
		if err != nil {
			b.Fatal(err)
		}
		entries := randRects(10000, 24)
		b.StartTimer()
		if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchPacked(b *testing.B) {
	b.ReportAllocs()
	pool := buffer.NewPool(storage.NewMemPager(4096), 4096)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 100})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.BulkLoad(randRects(50000, 25), xSortOrderer{}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		if _, err := tr.Count(geom.R2(x, y, x+0.1, y+0.1)); err != nil {
			b.Fatal(err)
		}
	}
}
