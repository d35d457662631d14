package rtree

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
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

// countTree is one tree of TestCountMatchesReference: what it holds, read
// back through the Unmarshal reference so the oracle shares no code with the
// traversal under test, and the rectangles its internal nodes store, by the
// level of the node storing them.
type countTree struct {
	tr      *Tree
	entries []node.Entry
	inner   [][]geom.Rect // inner[l]: entry rectangles of the level-l nodes, l >= 1
}

func readCountTree(t *testing.T, tr *Tree) countTree {
	t.Helper()
	ct := countTree{tr: tr, inner: make([][]geom.Rect, tr.Height())}
	if err := tr.WalkUnmarshal(func(_ storage.PageID, n *node.Node) bool {
		for _, e := range n.Entries {
			if n.Level == 0 {
				ct.entries = append(ct.entries, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
			} else {
				ct.inner[n.Level] = append(ct.inner[n.Level], e.Rect.Clone())
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ct
}

// windows returns the queries one tree is held to: the whole tree twice (a
// window far beyond it and its exact bounds); for internal entries of every
// level — all of them up to a cap, spread evenly — the entry's rectangle
// exactly (one leaf's MBR at level 1, one level-1 node's at level 2: the
// subtree is covered, its neighbours are touched), the same rectangle
// narrowed on its last axis only (covers the subtree on the other axes and
// not on that one) and the degenerate point window at its centre; a data
// entry's own rectangle and its corner; and random windows inside the
// tree's bounds.
func (ct countTree) windows(t *testing.T, rng *rand.Rand) []geom.Rect {
	t.Helper()
	bounds, ok, err := ct.tr.Bounds()
	if err != nil || !ok {
		t.Fatalf("Bounds: %v %v", ok, err)
	}
	dims := bounds.Dim()
	far := bounds.Clone()
	for d := 0; d < dims; d++ {
		far.Min[d], far.Max[d] = far.Min[d]-1e6, far.Max[d]+1e6
	}
	qs := []geom.Rect{far, bounds}
	for _, rects := range ct.inner[1:] {
		for i := 0; i < len(rects); i += 1 + len(rects)/12 {
			r := rects[i]
			narrow, centre := r.Clone(), r.Clone()
			last := dims - 1
			quarter := (r.Max[last] - r.Min[last]) / 4
			narrow.Min[last], narrow.Max[last] = r.Min[last]+quarter, r.Max[last]-quarter
			for d := 0; d < dims; d++ {
				centre.Min[d] = (r.Min[d] + r.Max[d]) / 2
				centre.Max[d] = centre.Min[d]
			}
			qs = append(qs, r, narrow, centre)
		}
	}
	e := ct.entries[len(ct.entries)/2].Rect
	qs = append(qs, e, geom.Rect{Min: e.Max, Max: e.Max})
	for i := 0; i < 30; i++ {
		q := bounds.Clone()
		for d := 0; d < dims; d++ {
			extent := bounds.Max[d] - bounds.Min[d]
			q.Min[d] = bounds.Min[d] + rng.Float64()*extent
			q.Max[d] = q.Min[d] + rng.Float64()*0.4*extent
		}
		qs = append(qs, q)
	}
	return qs
}

// TestCountMatchesReference pins Count — covered subtrees counted by page
// header included — three ways at once: its tally equals the number of
// entries Search emits equals a linear scan of what the tree holds, Search's
// entries are the Unmarshal reference's in its order, and Count fetches
// exactly the pages the reference fetches, in its order (the paper's metric:
// a covered subtree is still visited page by page). Collect, which sizes
// each leaf's copy by Count's tally, is held to the same entries, order and
// fetches. The trees: a packed one
// per dimensionality (the 3-D tree runs every visit through the kernels'
// k-dimensional fallback arms), an STR-packed one at the paper's node size,
// a four-level one, and one left by the mutation oracle's churn, whose
// parents hold rectangles looser than their children need.
func TestCountMatchesReference(t *testing.T) {
	packed := func(dims, n, capacity int) func(*testing.T) *Tree {
		return func(t *testing.T) *Tree {
			tr, err := Create(buffer.NewPool(storage.NewMemPager(4096), 256), Config{Dims: dims, Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			entries := make([]node.Entry, n)
			for i := range entries {
				r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
				for d := range r.Min {
					r.Min[d] = rng.Float64()
					r.Max[d] = r.Min[d] + rng.Float64()*0.02
				}
				entries[i] = node.Entry{Rect: r, Ref: uint64(i)}
			}
			if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
				t.Fatal(err)
			}
			return tr
		}
	}
	for _, tc := range []struct {
		name   string
		height int
		build  func(*testing.T) *Tree
	}{
		{"dims=2", 3, packed(2, 1500, 16)},
		{"dims=3", 3, packed(3, 1500, 16)},
		{"str-packed", 3, func(t *testing.T) *Tree {
			return strPackedTree(t, densitySquares(rand.New(rand.NewSource(28)), 30000, 0))
		}},
		{"height=4", 4, packed(2, 3000, 8)},
		{"churned", 0, func(t *testing.T) *Tree {
			return runMutateOracle(t, mutOracleConfig{
				seed: 2828, ops: 4000, dims: 2, pageSize: 256, bufPages: 64,
				row: "tile", pInsert: 0.6, swing: 1500, checkEvery: 500,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.build(t)
			if tc.height != 0 && tr.Height() != tc.height {
				t.Fatalf("tree has %d levels, the case wants %d", tr.Height(), tc.height)
			}
			if tr.Height() < 3 {
				t.Fatalf("tree has %d levels: no subtree to cover", tr.Height())
			}
			ct := readCountTree(t, tr)
			for i, q := range ct.windows(t, rand.New(rand.NewSource(10))) {
				var got, want []node.Entry
				n := 0
				var err error
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
				scanned := 0
				for _, e := range ct.entries {
					if q.Intersects(e.Rect) {
						scanned++
					}
				}
				if n != len(want) || n != scanned {
					t.Fatalf("window %d %v: Count=%d, reference=%d, linear scan=%d", i, q, n, len(want), scanned)
				}
				if !samePages(gotSeq, wantSeq) {
					t.Fatalf("window %d %v: fetch sequence diverged: count %v, reference %v", i, q, gotSeq, wantSeq)
				}
				searchSeq := traceFetches(tr.Pool(), func() {
					if err := tr.Search(q, collect(&got)); err != nil {
						t.Fatal(err)
					}
				})
				if !sameEntries(got, want) {
					t.Fatalf("window %d %v: Search returned %d entries, reference %d (or contents differ)", i, q, len(got), len(want))
				}
				if !samePages(searchSeq, wantSeq) {
					t.Fatalf("window %d %v: fetch sequence diverged: search %v, reference %v", i, q, searchSeq, wantSeq)
				}
				var items []geom.Item
				collectSeq := traceFetches(tr.Pool(), func() {
					if items, err = tr.Collect(nil, q); err != nil {
						t.Fatal(err)
					}
				})
				got = got[:0]
				for _, it := range items {
					got = append(got, node.Entry{Rect: it.Rect, Ref: it.ID})
				}
				if !sameEntries(got, want) {
					t.Fatalf("window %d %v: Collect returned %d entries, reference %d (or contents differ)", i, q, len(got), len(want))
				}
				if !samePages(collectSeq, wantSeq) {
					t.Fatalf("window %d %v: fetch sequence diverged: collect %v, reference %v", i, q, collectSeq, wantSeq)
				}
			}
		})
	}
}

// refNearest is the retired container/heap implementation of Nearest — a
// whole-page Unmarshal per visit, every entry cloned and queued, nothing
// pruned — kept as the oracle for pop-order and fetch-sequence identity. Its
// queue orders by the production heap's keys (distance, entries before
// nodes, ref, push order).
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
	seq := 0
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
			if n.Level == 0 {
				heap.Push(pq, refDistItem{dist: d, entry: node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref}, seq: seq})
				seq++
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
	seq    int // push order among data entries
	isNode bool
}

type refDistQueue []refDistItem

func (q refDistQueue) Len() int { return len(q) }
func (q refDistQueue) Less(i, j int) bool {
	//strlint:ignore floateq exact tie-break, mirroring the production heap
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	if q[i].isNode != q[j].isNode {
		return q[j].isNode
	}
	if q[i].isNode {
		return q[i].page < q[j].page
	}
	if q[i].entry.Ref != q[j].entry.Ref {
		return q[i].entry.Ref < q[j].entry.Ref
	}
	return q[i].seq < q[j].seq
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
// container/heap reference — identical (entry, distance) stream, identical
// fetch sequence — and NearestK(p, k), which prunes, to the first k of both:
// refs, rectangles, distances and fetches, for k = 1, 10, 40 and more than
// the tree holds. The inputs: random rectangles; seven rectangles repeated
// under distinct refs (every distance tie is broken by ref); and rectangles
// around one centre stored under three refs (probed at the centre, where they
// all lie at distance 0 and ties under one ref fall to push order).
func TestNearestMatchesReference(t *testing.T) {
	type hit struct {
		ref  uint64
		rect geom.Rect
		dist float64
	}
	sameHits := func(a, b []hit) bool {
		return slices.EqualFunc(a, b, func(x, y hit) bool {
			//strlint:ignore floateq both paths run the identical float sequence
			return x.ref == y.ref && x.dist == y.dist && x.rect.Equal(y.rect)
		})
	}
	for _, input := range []string{"random", "duplicate rects", "shared refs"} {
		tr := newTree(t, 8)
		entries := randRects(600, 17)
		centre := geom.Pt2(0.5, 0.5)
		switch input {
		case "duplicate rects":
			for i := range entries {
				entries[i].Rect = entries[i%7].Rect.Clone()
			}
		case "shared refs":
			for i := range entries {
				w, h := entries[i].Rect.Max[0]-entries[i].Rect.Min[0], entries[i].Rect.Max[1]-entries[i].Rect.Min[1]
				entries[i] = node.Entry{Rect: geom.R2(0.5-w, 0.5-h, 0.5+h, 0.5+w), Ref: uint64(i % 3)}
			}
		}
		if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 15; trial++ {
			p := geom.Pt2(rng.Float64(), rng.Float64())
			if input == "shared refs" && trial%2 == 0 {
				p = centre
			}
			take := func(dst *[]hit, limit int) func(node.Entry, float64) bool {
				return func(e node.Entry, d float64) bool {
					*dst = append(*dst, hit{ref: e.Ref, rect: e.Rect.Clone(), dist: d})
					return len(*dst) < limit
				}
			}
			for _, k := range []int{1 + rng.Intn(40), 1, 10, 40, len(entries) + 5} {
				var got, want, gotK []hit
				gotSeq := traceFetches(tr.Pool(), func() {
					if err := tr.nearestView(nil, p, 0, take(&got, k)); err != nil {
						t.Fatal(err)
					}
				})
				wantSeq := traceFetches(tr.Pool(), func() {
					if err := refNearest(tr, p, take(&want, k)); err != nil {
						t.Fatal(err)
					}
				})
				kSeq := traceFetches(tr.Pool(), func() {
					es, ds, err := tr.NearestK(p, k)
					if err != nil {
						t.Fatal(err)
					}
					for i, e := range es {
						if cap(e.Rect.Min) != 2 || cap(e.Rect.Max) != 2 {
							t.Fatalf("%s k=%d: result %d's corners can be appended into their neighbours", input, k, i)
						}
						gotK = append(gotK, hit{ref: e.Ref, rect: e.Rect, dist: ds[i]})
					}
				})
				if wantLen := min(k, len(entries)); len(want) != wantLen {
					t.Fatalf("%s trial %d k=%d: reference emitted %d, want %d", input, trial, k, len(want), wantLen)
				}
				if !sameHits(got, want) {
					t.Fatalf("%s trial %d k=%d: Nearest diverged from the reference:\n%v\n%v", input, trial, k, got, want)
				}
				if !sameHits(gotK, want) {
					t.Fatalf("%s trial %d k=%d: NearestK diverged from the reference:\n%v\n%v", input, trial, k, gotK, want)
				}
				if !samePages(gotSeq, wantSeq) {
					t.Fatalf("%s trial %d k=%d: Nearest's fetch sequence diverged: %v, reference %v", input, trial, k, gotSeq, wantSeq)
				}
				if !samePages(kSeq, wantSeq) {
					t.Fatalf("%s trial %d k=%d: NearestK's fetch sequence diverged: %v, reference %v", input, trial, k, kSeq, wantSeq)
				}
			}
		}
	}
}

// refJoin is the retired recursive join, kept as the oracle.
func refJoin(a, b *Tree, fn func(ea, eb node.Entry) bool) error {
	var visit func(pa, pb storage.PageID) (bool, error)
	visit = func(pa, pb storage.PageID) (bool, error) {
		var na, nb node.Node
		if err := a.unmarshalNode(pa, &na); err != nil {
			return false, err
		}
		if err := b.unmarshalNode(pb, &nb); err != nil {
			return false, err
		}
		switch {
		case na.Level == 0 && nb.Level == 0:
			for _, ea := range na.Entries {
				for _, eb := range nb.Entries {
					if ea.Rect.Intersects(eb.Rect) && !fn(ea, eb) {
						return false, nil
					}
				}
			}
			return true, nil
		case na.Level != 0 && (nb.Level == 0 || na.Level >= nb.Level):
			mbr := nodeMBR(nb)
			var kids []storage.PageID
			for _, e := range na.Entries {
				if mbr.Intersects(e.Rect) {
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
			mbr := nodeMBR(na)
			var kids []storage.PageID
			for _, e := range nb.Entries {
				if mbr.Intersects(e.Rect) {
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
// sequences, across trees of different heights and a tree joined with
// itself.
func TestJoinMatchesReference(t *testing.T) {
	ta := newTree(t, 8)
	if err := ta.BulkLoad(randRects(500, 3), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	tb := newTree(t, 8)
	if err := tb.BulkLoad(randRects(60, 4), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*Tree{{ta, tb}, {tb, ta}, {ta, ta}} {
		a, b := pair[0], pair[1]
		type match struct{ ra, rb uint64 }
		var got, want []match
		gotA := traceFetches(a.Pool(), func() {
			if err := Join(a, b, func(ea, eb node.Entry) bool {
				got = append(got, match{ea.Ref, eb.Ref})
				return true
			}); err != nil {
				t.Fatal(err)
			}
		})
		wantA := traceFetches(a.Pool(), func() {
			if err := refJoin(a, b, func(ea, eb node.Entry) bool {
				want = append(want, match{ea.Ref, eb.Ref})
				return true
			}); err != nil {
				t.Fatal(err)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("view join emitted %d pairs, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pair %d diverged: %v vs %v", i, got[i], want[i])
			}
		}
		if !samePages(gotA, wantA) {
			t.Fatal("fetch sequence on tree a diverged")
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
			if n.Level == 0 {
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
	// A Count whose window covers the whole tree: every page below the root
	// is visited by the covered arm, still one pin at a time — a second pin
	// on this pool is ErrPoolExhausted — and again from inside a callback.
	everything := geom.R2(-1, -1, 2, 2)
	ran = false
	if err := tr.Search(q, func(node.Entry) bool {
		if !ran {
			ran = true
			if n, err := tr.Count(everything); err != nil || n != 400 {
				t.Fatalf("reentrant covered Count under 1-frame pool: %d, %v", n, err)
			}
		}
		return true
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
	// Nearest stream early stop and NearestK cancellation.
	if err := tr.nearestView(nil, geom.Pt2(0.5, 0.5), 0, func(node.Entry, float64) bool { return false }); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := tr.NearestKContext(ctx2, geom.Pt2(0.5, 0.5), 1); err != context.Canceled {
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
	if n, err := tr.Count(everything); err != nil || n != 400 {
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
// path, and holds NearestK to the three allocations of its result.
func TestNearestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := newTree(t, 102)
	if err := tr.BulkLoad(randRects(5000, 78), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	p := geom.Pt2(0.5, 0.5)
	if err := tr.nearestView(nil, p, 0, func(node.Entry, float64) bool { return false }); err != nil {
		t.Fatal(err)
	}
	k := 0
	if allocs := testing.AllocsPerRun(50, func() {
		k = 0
		if err := tr.nearestView(nil, p, 0, func(node.Entry, float64) bool { k++; return k < 10 }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm nearest stream allocated %.1f times per query, want 0", allocs)
	}
	if k != 10 {
		t.Fatalf("nearest emitted %d entries, want 10", k)
	}
	// NearestK owns what it returns and nothing else: the entries, the
	// distances, and one slab for every rectangle's coordinates.
	var got []node.Entry
	if allocs := testing.AllocsPerRun(50, func() {
		var err error
		if got, _, err = tr.NearestK(p, 10); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Errorf("warm NearestK(10) allocated %.1f times per query, want at most 3", allocs)
	}
	if len(got) != 10 {
		t.Fatalf("NearestK(10) returned %d entries", len(got))
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
		// A window holding the whole tree: every visit below the root is a
		// covered one, which reads the header only, and counts all the same.
		everything := geom.R2(-1, -1, 2, 2)
		if _, err := tr.Count(everything); err != nil { // warm pool
			t.Fatal(err)
		}
		nodes, err := tr.NumNodes()
		if err != nil {
			t.Fatal(err)
		}
		before := tr.ReadStats()
		fetched := traceFetches(tr.Pool(), func() {
			if n, err := tr.Count(everything); err != nil || n != 300 {
				t.Fatalf("Count = %d, %v, want 300", n, err)
			}
		})
		after := tr.ReadStats()
		if len(fetched) != nodes {
			t.Fatalf("a count of everything fetched %d pages of %d", len(fetched), nodes)
		}
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
// CheckedPages moved 2726 -> 2727 when distHeap's order became total (PR 28):
// a NearestK of the tape opens two nodes at one distance in page order now,
// which leaves the 12-frame LRU in a different state for a later op — same
// visits, one more reload (measured with pruning off: the order alone).
const (
	mixedTapeQueries      = 403
	mixedTapeViewPages    = 4306
	mixedTapeCheckedPages = 2727
)

// TestPooledBuffersBounded: a collecting read returns its traverser with
// no buffer past pooledBytes, so the pool does not keep an answer-sized
// refs array alive after CompactInto; a Search's per-page buffers stay.
func TestPooledBuffersBounded(t *testing.T) {
	src := newTree(t, 64)
	entries := randRects(20_000, 11)
	if err := src.BulkLoad(entries, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	tr := src.getTraverser()
	tr.refs = make([]uint64, 0, 100_000)
	tr.slab = make([]float64, 0, 1_000)
	src.putTraverser(tr)
	if cap(tr.refs) != 0 || cap(tr.slab) != 1_000 {
		t.Fatalf("put kept refs of cap %d (want 0), slab of cap %d (want 1000)", cap(tr.refs), cap(tr.slab))
	}

	// A collection between the put and the Gets below would empty the pool
	// and leave nothing to check.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := src.CompactInto(newTree(t, 64), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for v := travPool.Get(); v != nil; v = travPool.Get() {
		tr := v.(*traverser)
		seen++
		if b := 8 * cap(tr.refs); b > pooledBytes {
			t.Errorf("a pooled traverser holds %d bytes of refs after CompactInto of %d entries, bound %d", b, len(entries), pooledBytes)
		}
		if b := 8 * cap(tr.slab); b > pooledBytes {
			t.Errorf("a pooled traverser holds %d bytes of coordinates, bound %d", b, pooledBytes)
		}
		if b := 24 * cap(tr.segs); b > pooledBytes {
			t.Errorf("a pooled traverser holds %d bytes of segments, bound %d", b, pooledBytes)
		}
	}
	if seen == 0 && !raceEnabled { // -race drops a quarter of all Puts
		t.Fatal("no traverser in the pool after CompactInto")
	}
}
