package strtree

// Allocation-regression gate at the public API level: steady-state Search,
// SearchPoint and Count through the strtree wrappers must not allocate, nor
// a warm in-place Insert+Delete pair. The same gate
// exists inside internal/rtree (TestSearchZeroAlloc there); this level
// additionally catches regressions in the root wrappers — a closure that
// starts escaping, a stats path that starts boxing — that the inner gate
// cannot see.

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"strtree/internal/query"
	"strtree/internal/storage"
)

// zeroAllocTree builds a packed 2-d tree big enough to be multi-level,
// with a buffer pool that holds every page, and runs one warm-up query so
// the traverser pool and the buffer are both hot.
func zeroAllocTree(tb testing.TB) *Tree {
	tb.Helper()
	tr, err := New(Options{Dims: 2, Capacity: 102, BufferPages: 512})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(randItems(20000, 1), PackSTR); err != nil {
		tb.Fatal(err)
	}
	if _, err := tr.Count(R2(0, 0, 1, 1)); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// searchAllocsPerRun measures allocations per warm Search and Count.
func searchAllocsPerRun(tb testing.TB, tr *Tree) (searchAllocs, countAllocs float64) {
	tb.Helper()
	q := R2(0.3, 0.3, 0.6, 0.6)
	found := 0
	searchAllocs = testing.AllocsPerRun(50, func() {
		found = 0
		if err := tr.Search(q, func(Item) bool { found++; return true }); err != nil {
			tb.Fatal(err)
		}
	})
	if found == 0 {
		tb.Fatal("query matched nothing; the gate exercised no emission path")
	}
	countAllocs = testing.AllocsPerRun(50, func() {
		if _, err := tr.Count(q); err != nil {
			tb.Fatal(err)
		}
	})
	return searchAllocs, countAllocs
}

// TestSearchViewZeroAlloc enforces the acceptance criterion in CI ("View"
// in the name places it in check.sh's root race list, where it skips:
// allocation counts are meaningless under the race detector).
func TestSearchViewZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := zeroAllocTree(t)
	defer func() {
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
	}()
	searchAllocs, countAllocs := searchAllocsPerRun(t, tr)
	if searchAllocs != 0 {
		t.Errorf("warm Search allocated %.1f times per query, want 0", searchAllocs)
	}
	if countAllocs != 0 {
		t.Errorf("warm Count allocated %.1f times per query, want 0", countAllocs)
	}
	// The point query, and the server's form of it under a context: the
	// degenerate rectangle they build must not cost what geom.PointRect's
	// two clones did.
	p, matched := Pt2(0.45, 0.45), 0
	if allocs := testing.AllocsPerRun(50, func() {
		if err := tr.SearchPoint(p, func(Item) bool { matched++; return true }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm SearchPoint allocated %.1f times per query, want 0", allocs)
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(50, func() {
		if err := tr.SearchContext(ctx, Rect{Min: p, Max: p}, func(Item) bool { matched++; return true }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm SearchContext on a point allocated %.1f times per query, want 0", allocs)
	}
	if matched == 0 {
		t.Fatal("point query matched nothing; the gate exercised no emission path")
	}
}

// churnTree mutates a packed tree: enough inserts to split leaves and
// enough deletes to patch MBRs in place, leaving leaves with room.
func churnTree(t *testing.T, tr *Tree) {
	t.Helper()
	items := randItems(2000, 99)
	for _, it := range items {
		if err := tr.Insert(it.Rect, it.ID+1<<32); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:1000] {
		if found, err := tr.Delete(it.Rect, it.ID+1<<32); err != nil || !found {
			t.Fatalf("churn delete of id %d: found %v, err %v", it.ID, found, err)
		}
	}
}

// TestSearchMutatedViewZeroAlloc is the write path's read-side guarantee:
// a tree that has been mutated (in-place appends, patched MBRs, splits,
// condensations) and re-verified must serve warm Search and Count at zero
// allocations per query, exactly like a freshly packed one. "Mutate" and
// "View" in the name place it in check.sh's root race list, where the
// alloc assertion skips.
func TestSearchMutatedViewZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := zeroAllocTree(t)
	defer func() {
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
	}()
	churnTree(t, tr)
	ms := tr.MutatePathStats()
	if ms.InPlaceInserts == 0 || ms.InPlaceDeletes == 0 {
		t.Fatalf("churn exercised no in-place mutations: %+v", ms)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("post-churn invariants: %v", err)
	}
	if _, err := tr.Count(R2(0, 0, 1, 1)); err != nil { // re-warm after churn
		t.Fatal(err)
	}
	searchAllocs, countAllocs := searchAllocsPerRun(t, tr)
	if searchAllocs != 0 {
		t.Errorf("warm Search on a mutated tree allocated %.1f times per query, want 0", searchAllocs)
	}
	if countAllocs != 0 {
		t.Errorf("warm Count on a mutated tree allocated %.1f times per query, want 0", countAllocs)
	}
}

// TestMutateInPlaceZeroAlloc is the write path's allocation gate at the
// public API: on a churned tree a warm Insert that finishes in place and the Delete that takes the
// item out again allocate nothing — descent, FindLeaf's candidate banking,
// page patches, meta write and the root wrappers included. The same gate
// exists inside internal/rtree; "Mutate" in the name places it in
// check.sh's race list, where it skips.
func TestMutateInPlaceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := zeroAllocTree(t)
	defer func() {
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
	}()
	churnTree(t, tr)
	for _, it := range randItems(64, 100) {
		pair := func() {
			if err := tr.Insert(it.Rect, 1<<40); err != nil {
				t.Fatal(err)
			}
			if found, err := tr.Delete(it.Rect, 1<<40); err != nil || !found {
				t.Fatalf("delete of the item just inserted: found %v, err %v", found, err)
			}
		}
		before := tr.MutatePathStats()
		pair() // warms the scratch, and shows whether this rectangle stays in place
		after := tr.MutatePathStats()
		if after.InPlaceInserts == before.InPlaceInserts || after.InPlaceDeletes == before.InPlaceDeletes {
			continue
		}
		if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
			t.Errorf("warm in-place Insert+Delete allocated %.1f times per pair, want 0", allocs)
		}
		return
	}
	t.Fatal("no probe rectangle stayed in place")
}

// BenchmarkSearchZeroAlloc is the benchmark-suite guard: it fails outright
// if a steady-state Search or Count allocates, so an allocation regression
// breaks the bench job even when nobody inspects allocs/op columns.
func BenchmarkSearchZeroAlloc(b *testing.B) {
	tr := zeroAllocTree(b)
	defer func() {
		if err := tr.Close(); err != nil {
			b.Error(err)
		}
	}()
	if !raceEnabled {
		if searchAllocs, countAllocs := searchAllocsPerRun(b, tr); searchAllocs != 0 || countAllocs != 0 {
			b.Fatalf("steady-state allocations regressed: Search %.1f, Count %.1f allocs per query, want 0",
				searchAllocs, countAllocs)
		}
	}
	q := R2(0.3, 0.3, 0.6, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := tr.Search(q, func(Item) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBulkLoadExternalViewAllocBound gates the external build's
// allocations: a sort comparator (or a per-entry rectangle copy) that
// escapes to the heap costs tens of allocations per entry — the builder
// this pipeline replaced made about 81 — where the pipeline itself needs
// well under one: run buffers, sort-kernel scratch, read-ahead batches and
// pages, each amortised over hundreds of entries (measured: 0.03).
func TestBulkLoadExternalAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const perEntryBound = 0.5
	items := randItems(20000, 7)
	dir := t.TempDir()
	allocs := testing.AllocsPerRun(3, func() {
		tr, err := New(Options{Capacity: 102, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// RunSize 2048: the x-sort spills ten runs and merges them.
		if err := tr.BulkLoadExternal(itemSource(items), ExternalOptions{RunSize: 2048, TmpDir: dir}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if perEntry := allocs / float64(len(items)); perEntry > perEntryBound {
		t.Errorf("external build allocated %.2f times per entry, bound %.2f", perEntry, perEntryBound)
	} else {
		t.Logf("external build: %.3f allocations per entry", perEntry)
	}
}

// TestBulkLoadExternalBytesBound gates the bytes an external build
// allocates at the default RunSize (1 << 20), which a count of allocations
// cannot see: a run allocated at RunSize rather than grown as it fills
// costs 40 MB per sort — the first-axis sort and each of the ten slab
// sorts here — where 10 000 items need a few MB in all (run arrays, sort
// scratch, leaf records, pages). Entry-header runs preallocated this way
// cost about 65 kB per entry.
func TestBulkLoadExternalBytesBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const perEntryBound = 2048
	items := randItems(10000, 8)
	tr, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := tr.BulkLoadExternal(itemSource(items), ExternalOptions{TmpDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perEntry := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(items)); perEntry > perEntryBound {
		t.Errorf("external build allocated %.0f bytes per entry, bound %d", perEntry, perEntryBound)
	} else {
		t.Logf("external build: %.0f bytes per entry", perEntry)
	}
}

// buildBytes returns the bytes one build of a fresh file tree allocates,
// Create to Close: on a file the pages are written, not held, so what is
// left is the build's own working memory.
func buildBytes(t *testing.T, opts Options, load func(*Tree) error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tree, err := Create(filepath.Join(t.TempDir(), "index.str"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := load(tree); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBulkLoadExternalSpilledBytesBound gates the bytes of the build
// ledger's external build: 131 072 items (5.2 MB of records), RunSize
// 2^14, so the first-axis sort spills eight runs and every slab fits one,
// at Workers 2, on a file. Each sort reuses the run arrays, sort pairs and
// sorted copies of the sorts before it, and each merge reader its batches:
// the build allocates about 6.5 MB. Allocated afresh they cost 29.4 MB.
func TestBulkLoadExternalSpilledBytesBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const bound = 10e6
	items := randItems(131072, 41)
	got := buildBytes(t, Options{Workers: 2}, func(tr *Tree) error {
		return tr.BulkLoadExternal(itemSource(items), ExternalOptions{RunSize: 1 << 14, TmpDir: t.TempDir()})
	})
	if got > bound {
		t.Errorf("spilled external build allocated %.1f MB, bound %.0f MB", float64(got)/1e6, bound/1e6)
	} else {
		t.Logf("spilled external build: %.1f MB", float64(got)/1e6)
	}
}

// TestBulkLoadExternalUnspilledBytesBound: an external build whose input
// fits one run allocates at most 1.25 times what BulkLoad allocates for the
// same items. BulkLoad's bytes are the records, the sort pairs and the
// sorted copy; the external build's are the run, filled in chunks and
// copied once into one array, and the same sort pairs, the records being
// read off the permutation a piece at a time. Sorting the run as a spilled input's would add a sorted copy
// and the slab sorts' arrays: 129 MB against BulkLoad's 57 MB for these
// 500 000 items.
func TestBulkLoadExternalUnspilledBytesBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const ratio = 1.25
	items := randItems(500000, 42)
	mem := buildBytes(t, Options{Workers: 2}, func(tr *Tree) error { return tr.BulkLoad(items, PackSTR) })
	ext := buildBytes(t, Options{Workers: 2}, func(tr *Tree) error {
		return tr.BulkLoadExternal(itemSource(items), ExternalOptions{TmpDir: t.TempDir()})
	})
	if got := float64(ext) / float64(mem); got > ratio {
		t.Errorf("unspilled external build allocated %.1f MB, %.2f times BulkLoad's %.1f MB; bound %.2f", float64(ext)/1e6, got, float64(mem)/1e6, ratio)
	} else {
		t.Logf("unspilled external build: %.1f MB, %.2f times BulkLoad's %.1f MB", float64(ext)/1e6, got, float64(mem)/1e6)
	}
}

// TestBulkLoadAllocBound gates the in-memory build's allocations at the
// public API: a level costs its record arrays, its sort's scratch and the
// closures and goroutines of its parallel passes, never anything per page or
// per entry. The build runs on a MemPager behind an 8-frame pool, so the
// pager's page allocations (subtracted) and the pool's frames are all that
// grow with the data outside the loader. The 100 000 items fill 992 pages:
// one allocation per page would triple the bound.
func TestBulkLoadAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const perLevel = 100
	items := randItems(100000, 41)
	for _, workers := range []int{1, 2} {
		tr, err := New(Options{BufferPages: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		pager := tr.pager.(*storage.MemPager)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pages := pager.Stats().Allocs
		if err := tr.BulkLoad(items, PackSTR); err != nil {
			t.Fatal(err)
		}
		pages = pager.Stats().Allocs - pages
		runtime.ReadMemStats(&after)
		allocs, levels := after.Mallocs-before.Mallocs-uint64(pages), tr.inner.Height()
		t.Logf("workers %d: %d allocations besides the pager's %d pages, %d levels", workers, allocs, pages, levels)
		if allocs > uint64(perLevel*levels) {
			t.Errorf("workers %d: BulkLoad of %d items allocated %d times besides the pager's pages, want <= %d per level (%d levels)",
				workers, len(items), allocs, perLevel, levels)
		}
	}
}

// churnedTree bulk-loads n random items into a tree whose buffer holds
// them all, then deletes the first tenth and inserts a tenth more: the
// dynamic history CompactInto exists to repack.
func churnedTree(tb testing.TB, n int, seed int64) *Tree {
	tb.Helper()
	tr, err := New(Options{BufferPages: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	items := randItems(n, seed)
	if err := tr.BulkLoad(items, PackSTR); err != nil {
		tb.Fatal(err)
	}
	for _, it := range items[:n/10] {
		if ok, err := tr.Delete(it.Rect, it.ID); err != nil || !ok {
			tb.Fatalf("delete %d: found %v, %v", it.ID, ok, err)
		}
	}
	for _, it := range randItems(n/10, seed+1) {
		if err := tr.Insert(it.Rect, it.ID+uint64(n)); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// TestCompactIntoAllocBound gates CompactInto's allocations: the source is
// read by the collecting read, one allocation per leaf for its coordinates
// and one for all the items, and loaded by BulkLoadFunc, a few per level.
// Nothing is allocated per entry (cloning each rectangle cost two:
// 200 175 allocations for these 100 000 entries; measured now: 1 578).
// The destination is a MemPager behind an 8-frame pool, whose page
// allocations are subtracted as in TestBulkLoadAllocBound.
func TestCompactIntoAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	src := churnedTree(t, 100_000, 71)
	dst, err := New(Options{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	pager := dst.pager.(*storage.MemPager)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pages := pager.Stats().Allocs
	if err := src.CompactInto(dst, PackSTR); err != nil {
		t.Fatal(err)
	}
	pages = pager.Stats().Allocs - pages
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs - uint64(pages)
	t.Logf("%d entries: %d allocations besides the pager's %d pages", src.Len(), allocs, pages)
	if dst.Len() != src.Len() {
		t.Fatalf("compacted %d of %d entries", dst.Len(), src.Len())
	}
	if allocs >= uint64(src.Len()/10) {
		t.Errorf("CompactInto of %d entries allocated %d times, want fewer than one per 10 entries", src.Len(), allocs)
	}
}

// TestSearchBatchBytesBound gates what a warm 16-window SearchBatch of
// about 2 000 matches allocates: the answer's Items and their coordinates,
// each leaf's matches written once into a slice of their exact size, plus
// no more than a quarter on top (size-class rounding, the list of lists).
// Copying the matches out through a growing slab and a growing per-worker
// item slice cost up to 1.36 times the answer at these windows; measured
// now: 1.04 to 1.08.
func TestSearchBatchBytesBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tr := zeroAllocTree(t)
	perMatch := float64(unsafe.Sizeof(Item{}) + 2*uintptr(tr.Dims())*unsafe.Sizeof(float64(0)))
	for _, extent := range []float64{0.06, 0.065, 0.07} {
		qs := query.Regions(16, extent, 81)
		res, err := tr.SearchBatch(qs, 1)
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		for _, list := range res {
			matches += len(list)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := tr.SearchBatch(qs, 1); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		answer := float64(matches) * perMatch
		t.Logf("extent %v: %d matches, %.0f B a batch, %.3f times the items and coordinates", extent, matches, bytes, bytes/answer)
		if bytes > 1.25*answer {
			t.Errorf("extent %v: a batch of %d matches allocated %.0f B, want <= 1.25 x %.0f B", extent, matches, bytes, answer)
		}
	}
}
