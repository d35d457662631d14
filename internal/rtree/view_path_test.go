package rtree

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// The tests in this file pin the zero-copy read path (traverse.go) to the
// materializing Unmarshal path it replaced: identical results in identical
// order, identical page-fetch sequences (and therefore identical paper
// disk-access counts under any buffer state), and zero steady-state heap
// allocations for Search and Count.

// traceFetches records the page-fetch sequence of fn via the pool tracer.
func traceFetches(pool buffer.Manager, fn func()) []storage.PageID {
	var seq []storage.PageID
	pool.SetTracer(func(id storage.PageID, hit bool) { seq = append(seq, id) })
	fn()
	pool.SetTracer(nil)
	return seq
}

func samePages(a, b []storage.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// collect clones an emitted entry so it survives the callback.
func collect(dst *[]node.Entry) func(node.Entry) bool {
	return func(e node.Entry) bool {
		*dst = append(*dst, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
		return true
	}
}

func sameEntries(a, b []node.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ref != b[i].Ref || !a[i].Rect.Equal(b[i].Rect) {
			return false
		}
	}
	return true
}

// TestSearchResultsIdentical is the differential acceptance test: on
// packed trees shaped like the paper experiments, the view-path Search
// returns byte-identical entries in identical order to the Unmarshal
// reference, fetching the same pages in the same sequence, for full-range,
// selective, empty, and early-stopped queries.
func TestSearchResultsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		n, capacity int
	}{
		{0, 8},   // empty tree
		{5, 8},   // root-only leaf
		{300, 8}, // three levels
		{2000, 16},
	} {
		t.Run(fmt.Sprintf("n=%d_cap=%d", tc.n, tc.capacity), func(t *testing.T) {
			tr := newTree(t, tc.capacity)
			if tc.n > 0 {
				if err := tr.BulkLoad(randRects(tc.n, int64(tc.n)), xSortOrderer{}); err != nil {
					t.Fatal(err)
				}
			}
			queries := []geom.Rect{
				geom.UnitSquare(),
				geom.R2(0.25, 0.25, 0.35, 0.35),
				geom.R2(0.9, 0.9, 0.90001, 0.90001),
				geom.R2(2, 2, 3, 3), // empty result
			}
			for i := 0; i < 20; i++ {
				x, y := rng.Float64(), rng.Float64()
				queries = append(queries, geom.R2(x, y, x+rng.Float64()*0.2, y+rng.Float64()*0.2))
			}
			for qi, q := range queries {
				var got, want []node.Entry
				gotSeq := traceFetches(tr.Pool(), func() {
					if err := tr.Search(q, collect(&got)); err != nil {
						t.Fatal(err)
					}
				})
				wantSeq := traceFetches(tr.Pool(), func() {
					if err := tr.SearchUnmarshal(q, collect(&want)); err != nil {
						t.Fatal(err)
					}
				})
				if !sameEntries(got, want) {
					t.Fatalf("query %d: view path returned %d entries, reference %d (or contents differ)", qi, len(got), len(want))
				}
				if !samePages(gotSeq, wantSeq) {
					t.Fatalf("query %d: fetch sequence diverged: view %v, reference %v", qi, gotSeq, wantSeq)
				}
			}
			// Early stop after m entries: same prefix, same fetches.
			if tc.n > 0 {
				for _, m := range []int{1, 3, 50} {
					var got, want []node.Entry
					stopAfter := func(dst *[]node.Entry) func(node.Entry) bool {
						return func(e node.Entry) bool {
							*dst = append(*dst, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
							return len(*dst) < m
						}
					}
					gotSeq := traceFetches(tr.Pool(), func() {
						if err := tr.Search(geom.UnitSquare(), stopAfter(&got)); err != nil {
							t.Fatal(err)
						}
					})
					wantSeq := traceFetches(tr.Pool(), func() {
						if err := tr.SearchUnmarshal(geom.UnitSquare(), stopAfter(&want)); err != nil {
							t.Fatal(err)
						}
					})
					if !sameEntries(got, want) || !samePages(gotSeq, wantSeq) {
						t.Fatalf("early stop at %d diverged", m)
					}
				}
			}
		})
	}
}

// TestCountMatchesReference pins Count (view path) to counting through the
// Unmarshal reference — same tally, same fetch sequence — and Search to the
// reference's entries on the same trees. The 3-D tree runs every visit
// through the page kernel's k-dimensional fallback arm.
func TestCountMatchesReference(t *testing.T) {
	for _, dims := range []int{2, 3} {
		t.Run(fmt.Sprintf("dims=%d", dims), func(t *testing.T) {
			tr, err := Create(buffer.NewPool(storage.NewMemPager(4096), 256), Config{Dims: dims, Capacity: 16})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			box := func(side float64) geom.Rect {
				r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
				for d := range r.Min {
					r.Min[d] = rng.Float64()
					r.Max[d] = r.Min[d] + rng.Float64()*side
				}
				return r
			}
			entries := make([]node.Entry, 1500)
			for i := range entries {
				entries[i] = node.Entry{Rect: box(0.02), Ref: uint64(i)}
			}
			if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				q := box(0.4)
				var got, want []node.Entry
				n := 0
				gotSeq := traceFetches(tr.Pool(), func() {
					if n, err = tr.Count(q); err != nil {
						t.Fatal(err)
					}
				})
				wantSeq := traceFetches(tr.Pool(), func() {
					if err := tr.SearchUnmarshal(q, collect(&want)); err != nil {
						t.Fatal(err)
					}
				})
				if n != len(want) {
					t.Fatalf("query %d: Count=%d, reference=%d", i, n, len(want))
				}
				if !samePages(gotSeq, wantSeq) {
					t.Fatalf("query %d: fetch sequence diverged: count %v, reference %v", i, gotSeq, wantSeq)
				}
				if err := tr.Search(q, collect(&got)); err != nil {
					t.Fatal(err)
				}
				if !sameEntries(got, want) {
					t.Fatalf("query %d: Search returned %d entries, reference %d (or contents differ)", i, len(got), len(want))
				}
			}
		})
	}
}

// refNearest is the retired container/heap implementation of Nearest,
// kept verbatim as the oracle for pop-order and fetch-sequence identity.
func refNearest(t *Tree, p geom.Point, fn func(e node.Entry, dist float64) bool) error {
	if len(p) != t.dims {
		return t.checkEntry(geom.PointRect(p))
	}
	if t.height == 0 {
		return nil
	}
	pq := &refDistQueue{}
	heap.Push(pq, refDistItem{dist: 0, page: t.root, isNode: true})
	var n node.Node
	for pq.Len() > 0 {
		it := heap.Pop(pq).(refDistItem)
		if !it.isNode {
			if !fn(it.entry, it.dist) {
				return nil
			}
			continue
		}
		if err := t.unmarshalNode(it.page, &n); err != nil {
			return err
		}
		for _, e := range n.Entries {
			d := minDist(p, e.Rect)
			if n.IsLeaf() {
				heap.Push(pq, refDistItem{dist: d, entry: node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref}, isNode: false})
			} else {
				heap.Push(pq, refDistItem{dist: d, page: storage.PageID(e.Ref), isNode: true})
			}
		}
	}
	return nil
}

type refDistItem struct {
	dist   float64
	page   storage.PageID
	entry  node.Entry
	isNode bool
}

type refDistQueue []refDistItem

func (q refDistQueue) Len() int { return len(q) }
func (q refDistQueue) Less(i, j int) bool {
	//strlint:ignore floateq exact tie-break, mirroring the production heap
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return !q[i].isNode && q[j].isNode
}
func (q refDistQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refDistQueue) Push(x any)   { *q = append(*q, x.(refDistItem)) }
func (q *refDistQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// TestNearestMatchesReference pins the typed-heap view-path Nearest to the
// container/heap reference: identical (entry, distance) stream, identical
// fetch sequence — including duplicate-heavy inputs that stress tie-breaks.
func TestNearestMatchesReference(t *testing.T) {
	for _, dup := range []bool{false, true} {
		tr := newTree(t, 8)
		entries := randRects(600, 17)
		if dup {
			// Many identical rectangles: every heap tie-break fires.
			for i := range entries {
				entries[i].Rect = entries[i%7].Rect.Clone()
			}
		}
		if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 15; trial++ {
			p := geom.Pt2(rng.Float64(), rng.Float64())
			limit := 1 + rng.Intn(40)
			type hit struct {
				ref  uint64
				rect geom.Rect
				dist float64
			}
			var got, want []hit
			take := func(dst *[]hit) func(node.Entry, float64) bool {
				return func(e node.Entry, d float64) bool {
					*dst = append(*dst, hit{ref: e.Ref, rect: e.Rect.Clone(), dist: d})
					return len(*dst) < limit
				}
			}
			gotSeq := traceFetches(tr.Pool(), func() {
				if err := tr.Nearest(p, take(&got)); err != nil {
					t.Fatal(err)
				}
			})
			wantSeq := traceFetches(tr.Pool(), func() {
				if err := refNearest(tr, p, take(&want)); err != nil {
					t.Fatal(err)
				}
			})
			if len(got) != len(want) {
				t.Fatalf("dup=%v trial %d: view emitted %d, reference %d", dup, trial, len(got), len(want))
			}
			for i := range got {
				//strlint:ignore floateq both paths run the identical float sequence
				if got[i].ref != want[i].ref || got[i].dist != want[i].dist || !got[i].rect.Equal(want[i].rect) {
					t.Fatalf("dup=%v trial %d: result %d diverged: view (%d,%g), reference (%d,%g)",
						dup, trial, i, got[i].ref, got[i].dist, want[i].ref, want[i].dist)
				}
			}
			if !samePages(gotSeq, wantSeq) {
				t.Fatalf("dup=%v trial %d: fetch sequence diverged", dup, trial)
			}
		}
	}
}

// refJoin is the retired recursive join, kept as the oracle.
func refJoin(a, b *Tree, dist float64, fn func(ea, eb node.Entry) bool) error {
	var visit func(pa, pb storage.PageID) (bool, error)
	near := func(x, y geom.Rect) bool {
		//strlint:ignore floateq 0 is the exact intersection-join sentinel
		if dist == 0 {
			return x.Intersects(y)
		}
		return x.Dist(y) <= dist
	}
	visit = func(pa, pb storage.PageID) (bool, error) {
		var na, nb node.Node
		if err := a.unmarshalNode(pa, &na); err != nil {
			return false, err
		}
		if err := b.unmarshalNode(pb, &nb); err != nil {
			return false, err
		}
		switch {
		case na.IsLeaf() && nb.IsLeaf():
			for _, ea := range na.Entries {
				for _, eb := range nb.Entries {
					if near(ea.Rect, eb.Rect) && !fn(ea, eb) {
						return false, nil
					}
				}
			}
			return true, nil
		case !na.IsLeaf() && (nb.IsLeaf() || na.Level >= nb.Level):
			mbr := nb.MBR()
			var kids []storage.PageID
			for _, e := range na.Entries {
				if near(mbr, e.Rect) {
					kids = append(kids, storage.PageID(e.Ref))
				}
			}
			for _, child := range kids {
				more, err := visit(child, pb)
				if err != nil || !more {
					return more, err
				}
			}
			return true, nil
		default:
			mbr := na.MBR()
			var kids []storage.PageID
			for _, e := range nb.Entries {
				if near(mbr, e.Rect) {
					kids = append(kids, storage.PageID(e.Ref))
				}
			}
			for _, child := range kids {
				more, err := visit(pa, child)
				if err != nil || !more {
					return more, err
				}
			}
			return true, nil
		}
	}
	if a.height == 0 || b.height == 0 {
		return nil
	}
	_, err := visit(a.root, b.root)
	return err
}

// TestJoinMatchesReference pins the pair-stack view-path join to the
// recursive reference: identical pair stream and identical per-tree fetch
// sequences, for intersection and within-distance joins across trees of
// different heights.
func TestJoinMatchesReference(t *testing.T) {
	ta := newTree(t, 8)
	if err := ta.BulkLoad(randRects(500, 3), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	tb := newTree(t, 8)
	if err := tb.BulkLoad(randRects(60, 4), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	for _, dist := range []float64{0, 0.05} {
		for _, pair := range [][2]*Tree{{ta, tb}, {tb, ta}, {ta, ta}} {
			a, b := pair[0], pair[1]
			type match struct{ ra, rb uint64 }
			var got, want []match
			gotA := traceFetches(a.Pool(), func() {
				if err := JoinWithin(a, b, dist, func(ea, eb node.Entry) bool {
					got = append(got, match{ea.Ref, eb.Ref})
					return true
				}); err != nil {
					t.Fatal(err)
				}
			})
			wantA := traceFetches(a.Pool(), func() {
				if err := refJoin(a, b, dist, func(ea, eb node.Entry) bool {
					want = append(want, match{ea.Ref, eb.Ref})
					return true
				}); err != nil {
					t.Fatal(err)
				}
			})
			if len(got) != len(want) {
				t.Fatalf("dist=%g: view join emitted %d pairs, reference %d", dist, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("dist=%g: pair %d diverged: %v vs %v", dist, i, got[i], want[i])
				}
			}
			if !samePages(gotA, wantA) {
				t.Fatalf("dist=%g: fetch sequence on tree a diverged", dist)
			}
		}
	}
}

// TestScanMatchesWalk pins the explicit-stack Scan to the recursive reference
// walk's (WalkUnmarshal)
// preorder: same entries in the same order, same fetch sequence.
func TestScanMatchesWalk(t *testing.T) {
	tr := newTree(t, 8)
	if err := tr.BulkLoad(randRects(700, 6), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	var got, want []node.Entry
	gotSeq := traceFetches(tr.Pool(), func() {
		if err := tr.Scan(collect(&got)); err != nil {
			t.Fatal(err)
		}
	})
	wantSeq := traceFetches(tr.Pool(), func() {
		if err := tr.WalkUnmarshal(func(_ storage.PageID, n *node.Node) bool {
			if n.IsLeaf() {
				for _, e := range n.Entries {
					want = append(want, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	if !sameEntries(got, want) {
		t.Fatalf("Scan emitted %d entries, Walk %d (or contents differ)", len(got), len(want))
	}
	if !samePages(gotSeq, wantSeq) {
		t.Fatalf("fetch sequence diverged: Scan %v, Walk %v", gotSeq, wantSeq)
	}
}

// TestViewPathNoPinLeaks drives every traversal through early stops,
// cancellation, and a single-frame buffer pool; any missed Release on any
// exit path deadlocks or errors the next query.
func TestViewPathNoPinLeaks(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 1) // one frame: a leaked pin is fatal
	tr, err := Create(pool, Config{Dims: 2, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(randRects(400, 12), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	q := geom.UnitSquare()
	// Early stop mid-leaf.
	if err := tr.Search(q, func(node.Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	// Reentrant query from inside a callback, still on the 1-frame pool.
	ran := false
	if err := tr.Search(q, func(node.Entry) bool {
		if !ran {
			ran = true
			if _, err := tr.Count(geom.R2(0.4, 0.4, 0.6, 0.6)); err != nil {
				t.Fatalf("reentrant Count under 1-frame pool: %v", err)
			}
		}
		return false
	}); err != nil {
		t.Fatal(err)
	}
	// Cancelled context mid-traversal.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err = tr.SearchContext(ctx, q, func(node.Entry) bool {
		calls++
		if calls == 3 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("cancelled search returned %v", err)
	}
	// Nearest early stop and cancellation.
	if err := tr.Nearest(geom.Pt2(0.5, 0.5), func(node.Entry, float64) bool { return false }); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := tr.NearestContext(ctx2, geom.Pt2(0.5, 0.5), func(node.Entry, float64) bool { return true }); err != context.Canceled {
		t.Fatalf("cancelled nearest returned %v", err)
	}
	// Join early stop.
	if err := Join(tr, tr, func(_, _ node.Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	// Scan early stop.
	if err := tr.Scan(func(node.Entry) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if pinned := pool.Stats().Pinned; pinned != 0 {
		t.Fatalf("%d frames still pinned after traversals", pinned)
	}
	// The tree is still fully queryable.
	if n, err := tr.Count(q); err != nil || n != 400 {
		t.Fatalf("after pin-leak gauntlet: Count=%d err=%v, want 400", n, err)
	}
}

// TestSearchZeroAlloc is the allocation-regression gate from the issue's
// acceptance criteria: with a warm traverser pool and a buffer pool big
// enough to hold the tree, steady-state Search, SearchPoint and Count
// perform zero heap allocations per query.
func TestSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := newTree(t, 102) // paper node capacity
	if err := tr.BulkLoad(randRects(5000, 77), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	q := geom.R2(0.3, 0.3, 0.6, 0.6)
	found := 0
	// Warm the traverser pool and the buffer pool.
	if _, err := tr.Count(geom.UnitSquare()); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		found = 0
		if err := tr.Search(q, func(node.Entry) bool { found++; return true }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Search allocated %.1f times per query, want 0", allocs)
	}
	if found == 0 {
		t.Fatal("query matched nothing; the gate exercised no emission path")
	}
	p := geom.Pt2(0.45, 0.45)
	if allocs := testing.AllocsPerRun(50, func() {
		if err := tr.SearchPoint(p, func(node.Entry) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm SearchPoint allocated %.1f times per query, want 0", allocs)
	}
	n := 0
	if allocs := testing.AllocsPerRun(50, func() {
		var err error
		n, err = tr.Count(q)
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Count allocated %.1f times per query, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("count was zero; the gate exercised no counting path")
	}
}

// TestNearestZeroAlloc extends the gate to the streaming nearest-neighbor
// path (NearestK itself returns freshly allocated result slices and is
// exempt by design).
func TestNearestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := newTree(t, 102)
	if err := tr.BulkLoad(randRects(5000, 78), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	p := geom.Pt2(0.5, 0.5)
	if err := tr.Nearest(p, func(node.Entry, float64) bool { return false }); err != nil {
		t.Fatal(err)
	}
	k := 0
	if allocs := testing.AllocsPerRun(50, func() {
		k = 0
		if err := tr.Nearest(p, func(node.Entry, float64) bool { k++; return k < 10 }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Nearest allocated %.1f times per query, want 0", allocs)
	}
	if k != 10 {
		t.Fatalf("nearest emitted %d entries, want 10", k)
	}
}

// TestReadStatsCount checks the observability counters: one query, one
// page decode per visited node, a flat TraverserAllocs once warm — and that
// a traversal, which tallies its visits locally and publishes them once
// when it ends, publishes however it ends. The mixed tape's totals are the
// ones per-visit atomic increments produced for the same seeded tape (a
// small buffer, so pages are evicted, reloaded and re-validated throughout).
func TestReadStatsCount(t *testing.T) {
	build := func(t *testing.T, frames int) (*Tree, []node.Entry) {
		tr, err := Create(buffer.NewPool(storage.NewMemPager(4096), frames), Config{Dims: 2, Capacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		entries := randRects(300, 5)
		if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
			t.Fatal(err)
		}
		return tr, entries
	}
	sink := func(node.Entry) bool { return true }

	t.Run("warm count", func(t *testing.T) {
		tr, _ := build(t, 256)
		if _, err := tr.Count(geom.UnitSquare()); err != nil { // warm pool
			t.Fatal(err)
		}
		before := tr.ReadStats()
		fetched := traceFetches(tr.Pool(), func() {
			if _, err := tr.Count(geom.UnitSquare()); err != nil {
				t.Fatal(err)
			}
		})
		after := tr.ReadStats()
		if after.Queries != before.Queries+1 {
			t.Fatalf("Queries went %d -> %d, want +1", before.Queries, after.Queries)
		}
		if got := after.ViewPages - before.ViewPages; got != uint64(len(fetched)) {
			t.Fatalf("ViewPages delta %d, fetched %d pages", got, len(fetched))
		}
		if after.TraverserAllocs != before.TraverserAllocs {
			t.Fatalf("warm query allocated a traverser (%d -> %d)", before.TraverserAllocs, after.TraverserAllocs)
		}
	})

	t.Run("mixed tape", func(t *testing.T) {
		tr, entries := build(t, 12)
		rng := rand.New(rand.NewSource(41))
		for op := 0; op < 600; op++ {
			x, y := rng.Float64(), rng.Float64()
			q := geom.R2(x, y, x+0.1, y+0.1)
			var err error
			switch op % 6 {
			case 0:
				err = tr.Search(q, sink)
			case 1:
				_, err = tr.Count(q)
			case 2:
				_, _, err = tr.NearestK(geom.Pt2(x, y), 4)
			case 3:
				err = tr.Insert(geom.R2(x, y, x+0.01, y+0.01), uint64(1000+op))
			case 4:
				e := entries[op/6]
				var found bool
				if found, err = tr.Delete(e.Rect, e.Ref); err == nil && !found {
					err = fmt.Errorf("entry %d not found", e.Ref)
				}
			case 5:
				err = tr.SearchPoint(geom.Pt2(x, y), sink)
			}
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		if _, _, err := tr.Bounds(); err != nil {
			t.Fatal(err)
		}
		pairs := 0
		if err := Join(tr, tr, func(a, b node.Entry) bool { pairs++; return pairs < 200 }); err != nil {
			t.Fatal(err)
		}
		if err := tr.Scan(sink); err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(CheckConfig{}); err != nil {
			t.Fatal(err)
		}
		got := tr.ReadStats()
		got.TraverserAllocs = 0 // depends on what earlier tests left in the pool
		if want := (ReadStats{Queries: mixedTapeQueries, ViewPages: mixedTapeViewPages, CheckedPages: mixedTapeCheckedPages}); got != want {
			t.Fatalf("ReadStats after the tape: %+v, want %+v", got, want)
		}
	})

	t.Run("abandoned by fn", func(t *testing.T) {
		tr, _ := build(t, 256)
		before := tr.ReadStats()
		fetched := traceFetches(tr.Pool(), func() {
			if err := tr.Search(geom.UnitSquare(), func(node.Entry) bool { return false }); err != nil {
				t.Fatal(err)
			}
		})
		after := tr.ReadStats()
		if len(fetched) != tr.Height() {
			t.Fatalf("abandoned search fetched %d pages, want one per level (%d)", len(fetched), tr.Height())
		}
		if after.Queries != before.Queries+1 || after.ViewPages-before.ViewPages != uint64(len(fetched)) {
			t.Fatalf("abandoned search: %+v -> %+v, fetched %d pages", before, after, len(fetched))
		}
	})

	t.Run("fails mid-descent", func(t *testing.T) {
		tr, _ := build(t, 256)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		// Break the first leaf the descent reaches, on disk, and drop every
		// frame: the root and the internal node above it are visited and
		// validated, the leaf is fetched and validated but never viewed.
		path := traceFetches(tr.Pool(), func() {
			if err := tr.Search(geom.UnitSquare(), func(node.Entry) bool { return false }); err != nil {
				t.Fatal(err)
			}
		})
		leaf := path[len(path)-1]
		pager := tr.Pool().Pager()
		page := make([]byte, pager.PageSize())
		if err := pager.ReadPage(leaf, page); err != nil {
			t.Fatal(err)
		}
		page[node.HeaderSize+3] ^= 0xFF
		if err := pager.WritePage(leaf, page); err != nil {
			t.Fatal(err)
		}
		if err := tr.Pool().Invalidate(); err != nil {
			t.Fatal(err)
		}
		before := tr.ReadStats()
		var err error
		fetched := traceFetches(tr.Pool(), func() { err = tr.Search(geom.UnitSquare(), sink) })
		if !errors.Is(err, node.ErrBadChecksum) {
			t.Fatalf("search over a corrupt leaf: err %v, want %v", err, node.ErrBadChecksum)
		}
		after := tr.ReadStats()
		if !samePages(fetched, path) {
			t.Fatalf("failing search fetched %v, want %v", fetched, path)
		}
		if after.Queries != before.Queries+1 ||
			after.ViewPages-before.ViewPages != uint64(len(path)-1) ||
			after.CheckedPages-before.CheckedPages != uint64(len(path)) {
			t.Fatalf("failing search: %+v -> %+v over %d fetches", before, after, len(path))
		}
	})
}

// Totals of TestReadStatsCount's mixed tape. The visit counts pin the tree's
// shape as well as the counting: they were 4490 and 2860 under Guttman's
// linear split and moved once, when the tile cut became the default (PR 24)
// and the same tape left a tree that takes fewer visits to read.
const (
	mixedTapeQueries      = 403
	mixedTapeViewPages    = 4306
	mixedTapeCheckedPages = 2726
)
