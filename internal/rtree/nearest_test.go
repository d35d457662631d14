package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/storage"
)

func TestMinDist(t *testing.T) {
	r := geom.R2(0.2, 0.2, 0.4, 0.4)
	cases := []struct {
		p    geom.Point
		want float64
	}{
		{geom.Pt2(0.3, 0.3), 0},               // inside
		{geom.Pt2(0.2, 0.2), 0},               // on corner
		{geom.Pt2(0.5, 0.3), 0.1},             // right of box
		{geom.Pt2(0.3, 0.1), 0.1},             // below box
		{geom.Pt2(0.5, 0.5), math.Sqrt2 / 10}, // diagonal from corner
	}
	for i, c := range cases {
		if got := minDist(c.p, r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: minDist(%v) = %g, want %g", i, c.p, got, c.want)
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	tr := newTree(t, 8)
	entries := randRects(400, 31)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		p := geom.Pt2(rng.Float64(), rng.Float64())
		const k = 7
		got, dists, err := tr.NearestK(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("NearestK returned %d", len(got))
		}
		// Brute force.
		type cand struct {
			ref uint64
			d   float64
		}
		cands := make([]cand, len(entries))
		for i, e := range entries {
			cands[i] = cand{e.Ref, minDist(p, e.Rect)}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
		for i := 0; i < k; i++ {
			if math.Abs(dists[i]-cands[i].d) > 1e-12 {
				t.Fatalf("trial %d rank %d: dist %g, brute force %g", trial, i, dists[i], cands[i].d)
			}
		}
		// Distances are non-decreasing.
		for i := 1; i < k; i++ {
			if dists[i] < dists[i-1] {
				t.Fatalf("distances not sorted: %v", dists)
			}
		}
	}
}

func TestNearestFullDrain(t *testing.T) {
	tr := newTree(t, 4)
	entries := randRects(50, 33)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	if err := tr.nearestView(nil, geom.Pt2(0.5, 0.5), 0, func(e node.Entry, d float64) bool {
		if seen[e.Ref] {
			t.Fatalf("ref %d visited twice", e.Ref)
		}
		seen[e.Ref] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 50 {
		t.Fatalf("nearest drained %d of 50 entries", len(seen))
	}
}

func TestNearestEmptyAndErrors(t *testing.T) {
	tr := newTree(t, 4)
	if err := tr.nearestView(nil, geom.Pt2(0.5, 0.5), 0, func(node.Entry, float64) bool {
		t.Fatal("callback on empty tree")
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.nearestView(nil, geom.Point{0.5, 0.5, 0.5}, 0, func(node.Entry, float64) bool { return true }); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	entries, dists, err := tr.NearestK(geom.Pt2(0, 0), 0)
	if err != nil || entries != nil || dists != nil {
		t.Fatal("NearestK(0) should be a no-op")
	}
}

func TestNearestPrunes(t *testing.T) {
	// With well-separated clusters, a nearest-1 query must not read the
	// whole tree: far subtrees are pruned by the bound.
	pool := buffer.NewPool(storage.NewMemPager(4096), 512)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	var entries []node.Entry
	ref := uint64(0)
	for cx := 0.1; cx < 1; cx += 0.2 {
		for cy := 0.1; cy < 1; cy += 0.2 {
			for i := 0; i < 64; i++ {
				x := cx + float64(i%8)*0.001
				y := cy + float64(i/8)*0.001
				entries = append(entries, node.Entry{Rect: geom.PointRect(geom.Pt2(x, y)), Ref: ref})
				ref++
			}
		}
	}
	if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	total, err := tr.NumNodes()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	if _, _, err := tr.NearestK(geom.Pt2(0.105, 0.105), 1); err != nil {
		t.Fatal(err)
	}
	reads := pool.Stats().DiskReads
	if reads > int64(total)/3 {
		t.Fatalf("nearest-1 read %d of %d nodes: no pruning", reads, total)
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	mk := func(seed int64, n int) (*Tree, []node.Entry) {
		tr := newTree(t, 8)
		entries := randRects(n, seed)
		if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
			t.Fatal(err)
		}
		return tr, entries
	}
	ta, ea := mk(41, 300)
	tb, eb := mk(42, 200)

	want := map[[2]uint64]bool{}
	for _, a := range ea {
		for _, b := range eb {
			if a.Rect.Intersects(b.Rect) {
				want[[2]uint64{a.Ref, b.Ref}] = true
			}
		}
	}
	got := map[[2]uint64]bool{}
	if err := Join(ta, tb, func(a, b node.Entry) bool {
		key := [2]uint64{a.Ref, b.Ref}
		if got[key] {
			t.Fatalf("pair %v reported twice", key)
		}
		got[key] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("join found %d pairs, brute force %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("join missed pair %v", k)
		}
	}
}

func TestJoinDifferentHeights(t *testing.T) {
	// A tall tree joined with a single-leaf tree exercises the
	// height-balancing descent.
	tall := newTree(t, 4)
	tallEntries := randRects(300, 43)
	if err := tall.BulkLoad(append([]node.Entry(nil), tallEntries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	short := newTree(t, 4)
	shortEntries := randRects(3, 44)
	if err := short.BulkLoad(append([]node.Entry(nil), shortEntries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, a := range tallEntries {
		for _, b := range shortEntries {
			if a.Rect.Intersects(b.Rect) {
				want++
			}
		}
	}
	got := 0
	if err := Join(tall, short, func(a, b node.Entry) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("join found %d pairs, want %d", got, want)
	}
	// And in the other order.
	got = 0
	if err := Join(short, tall, func(a, b node.Entry) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reversed join found %d pairs, want %d", got, want)
	}
}

func TestJoinEarlyStopAndErrors(t *testing.T) {
	ta := newTree(t, 4)
	if err := ta.BulkLoad(randRects(100, 45), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Join(ta, ta, func(a, b node.Entry) bool { n++; return n < 10 }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early stop after %d pairs", n)
	}
	// Dimension mismatch.
	pool := buffer.NewPool(storage.NewMemPager(4096), 32)
	t3, err := Create(pool, Config{Dims: 3, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := Join(ta, t3, func(a, b node.Entry) bool { return true }); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// Empty trees join to nothing.
	empty := newTree(t, 4)
	if err := Join(ta, empty, func(a, b node.Entry) bool {
		t.Fatal("pair from empty join")
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScanAndEntries(t *testing.T) {
	tr := newTree(t, 8)
	entries := randRects(200, 46)
	if err := tr.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	if err := tr.Scan(func(e node.Entry) bool {
		seen[e.Ref] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 200 {
		t.Fatalf("scan saw %d entries", len(seen))
	}
	// Early stop.
	n := 0
	if err := tr.Scan(func(node.Entry) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("scan early stop at %d", n)
	}
	// Cloned rectangles outlive the scan and match the originals.
	got := scanEntries(t, tr)
	if len(got) != 200 {
		t.Fatalf("scan collected %d", len(got))
	}
	byRef := map[uint64]geom.Rect{}
	for _, e := range entries {
		byRef[e.Ref] = e.Rect
	}
	for _, e := range got {
		if !e.Rect.Equal(byRef[e.Ref]) {
			t.Fatalf("entry %d rect mismatch", e.Ref)
		}
	}
}

func TestCompactInto(t *testing.T) {
	// Build a fragmented tree with inserts and deletes, then compact it.
	src := newTree(t, 8)
	entries := randRects(600, 47)
	for _, e := range entries {
		if err := src.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries[:200] {
		if _, err := src.Delete(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	srcNodes, err := src.NumNodes()
	if err != nil {
		t.Fatal(err)
	}

	dst := newTree(t, 8)
	if err := src.CompactInto(dst, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 400 {
		t.Fatalf("compacted len = %d", dst.Len())
	}
	if err := dst.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	dstNodes, err := dst.NumNodes()
	if err != nil {
		t.Fatal(err)
	}
	if dstNodes >= srcNodes {
		t.Fatalf("compaction did not shrink: %d -> %d nodes", srcNodes, dstNodes)
	}
	// Same answers.
	q := geom.R2(0.25, 0.25, 0.5, 0.5)
	a, err := src.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("counts differ after compaction: %d vs %d", a, b)
	}
	// Compacting into a non-empty tree fails.
	if err := src.CompactInto(dst, xSortOrderer{}); err == nil {
		t.Fatal("compact into non-empty tree accepted")
	}
}

func BenchmarkNearestK10(b *testing.B) {
	b.ReportAllocs()
	pool := buffer.NewPool(storage.NewMemPager(4096), 4096)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 100})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.BulkLoad(randRects(50000, 48), xSortOrderer{}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(49))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.NearestK(geom.Pt2(rng.Float64(), rng.Float64()), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCount1pct is the ledger's count op in small: the paper's 1 %
// window (side 0.1) over an STR-packed tree of 250 000 squares at the
// paper's node size, every page buffered. Most of the leaves such a window
// touches lie wholly inside it and are counted by page header.
func BenchmarkCount1pct(b *testing.B) {
	benchCount1pct(b, count1pctTree(b))
}

// BenchmarkCount1pctCold is BenchmarkCount1pct's tree and windows behind a
// pool of 2.5 % of its pages (the paper's buffer) over the same MemPager:
// most visits miss, so every count pays the miss path's CPU — eviction, the
// page copy, MakeView's CRC and rectangle check — without a system call.
func BenchmarkCount1pctCold(b *testing.B) {
	warm := count1pctTree(b)
	if err := warm.Flush(); err != nil {
		b.Fatal(err)
	}
	pager := warm.Pool().Pager()
	tr, err := Open(buffer.NewPool(pager, pager.NumPages()*25/1000))
	if err != nil {
		b.Fatal(err)
	}
	benchCount1pct(b, tr)
}

// count1pctTree is the Count1pct benchmarks' tree: 250 000 STR-packed
// squares at the paper's node size over a MemPager, every page buffered.
func count1pctTree(b *testing.B) *Tree {
	tr, err := Create(buffer.NewPool(storage.NewMemPager(4096), 4096), Config{Dims: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.BulkLoad(densitySquares(rand.New(rand.NewSource(52)), 250000, 0), pack.STR{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchCount1pct times tr.Count over a fixed sequence of 0.1 × 0.1 windows.
func benchCount1pct(b *testing.B, tr *Tree) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(53))
	q := geom.R2(0, 0, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Min[0], q.Min[1] = rng.Float64(), rng.Float64()
		q.Max[0], q.Max[1] = math.Min(q.Min[0]+0.1, 1), math.Min(q.Min[1]+0.1, 1)
		if _, err := tr.Count(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoin(b *testing.B) {
	b.ReportAllocs()
	mk := func(seed int64) *Tree {
		pool := buffer.NewPool(storage.NewMemPager(4096), 4096)
		tr, err := Create(pool, Config{Dims: 2, Capacity: 100})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.BulkLoad(randRects(10000, seed), xSortOrderer{}); err != nil {
			b.Fatal(err)
		}
		return tr
	}
	ta, tb := mk(50), mk(51)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := Join(ta, tb, func(a, bb node.Entry) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}

// minDist returns the Euclidean distance from a point to the nearest point
// of a rectangle (0 if the point is inside): the reference the nearest
// searches are held to. node.View's AppendMinDist kernel runs this exact
// float sequence over the wire words.
func minDist(p geom.Point, r geom.Rect) float64 {
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
