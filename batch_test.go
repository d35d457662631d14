package strtree

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"strtree/internal/query"
	"strtree/internal/storage"
)

// batchTree builds a packed tree with the given buffer geometry over a
// fixed item set.
func batchTree(t *testing.T, bufferPages, bufferShards int) (*Tree, []Item) {
	t.Helper()
	tree, err := New(Options{Capacity: 16, BufferPages: bufferPages, BufferShards: bufferShards})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(5000, 61)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	return tree, items
}

func batchQueries(n int) []Rect {
	return query.Regions(n, query.Extent9Pct, 62)
}

// TestSearchBatchMatchesSequential checks batched results equal per-query
// Search calls — same matches, same per-query order, one list per query in
// input order — at every worker count (0: GOMAXPROCS), on a sharded buffer
// small enough to evict constantly. Then it checks that the answers own
// their memory: kept across a further batch, more searches and a
// DropCaches, every list still equals a linear scan of the items, and every
// corner has cap == len, so an append to one item's Min reallocates instead
// of writing into its neighbour.
func TestSearchBatchMatchesSequential(t *testing.T) {
	tree, items := batchTree(t, 64, 8)
	qs := batchQueries(200)
	want := make([][]Item, len(qs))
	for i, q := range qs {
		want[i] = searchItems(t, tree, q)
	}
	var kept [][][]Item
	for _, workers := range []int{0, 1, 3, 4, 8} {
		got, err := tree.SearchBatch(qs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(qs) {
			t.Fatalf("workers=%d: %d lists for %d queries", workers, len(got), len(qs))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d query %d: %d items, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j].ID != want[i][j].ID || !got[i][j].Rect.Equal(want[i][j].Rect) {
					t.Fatalf("workers=%d query %d item %d: %v != %v", workers, i, j, got[i][j], want[i][j])
				}
			}
		}
		kept = append(kept, got)
	}

	// Reuse every frame and pooled traversal buffer the answers came from.
	if _, err := tree.SearchBatch(query.Regions(200, query.Extent9Pct, 63), 4); err != nil {
		t.Fatal(err)
	}
	for _, q := range query.Points(200, 64) {
		searchItems(t, tree, q)
	}
	if err := tree.DropCaches(); err != nil {
		t.Fatal(err)
	}
	for k, got := range kept {
		for i, q := range qs {
			if err := sameAsScan(got[i], items, q); err != nil {
				t.Fatalf("kept batch %d query %d: %v", k, i, err)
			}
		}
	}
	for k, got := range kept {
		for i, list := range got {
			if err := ownCorners(list); err != nil {
				t.Fatalf("kept batch %d query %d: %v", k, i, err)
			}
		}
	}
}

// sameAsScan reports how got differs from the items a linear scan finds
// intersecting q, as sets by ID with equal rectangles.
func sameAsScan(got, items []Item, q Rect) error {
	want := map[uint64]Rect{}
	for _, it := range items {
		if it.Rect.Intersects(q) {
			want[it.ID] = it.Rect
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d items, linear scan finds %d", len(got), len(want))
	}
	for _, it := range got {
		if r, ok := want[it.ID]; !ok || !r.Equal(it.Rect) {
			return fmt.Errorf("item %d %v is not the scan's %v", it.ID, it.Rect, r)
		}
	}
	return nil
}

// ownCorners reports a corner whose cap is not its len, or a rectangle that
// changes when the Min of the item before it is appended to.
func ownCorners(list []Item) error {
	for j, it := range list {
		if cap(it.Rect.Min) != len(it.Rect.Min) || cap(it.Rect.Max) != len(it.Rect.Max) {
			return fmt.Errorf("item %d: cap(Min) %d, cap(Max) %d at %d dims", j, cap(it.Rect.Min), cap(it.Rect.Max), len(it.Rect.Min))
		}
		if j == 0 {
			continue
		}
		before := it.Rect.Clone()
		_ = append(list[j-1].Rect.Min, -1)
		if !it.Rect.Equal(before) {
			return fmt.Errorf("item %d changed when item %d's Min was appended to", j, j-1)
		}
	}
	return nil
}

// TestSearchBatchCountMatchesCount cross-checks the count path at every
// worker count, counts in input order: a window holding every item counts
// the tree's Len, a window beside the data 0, and each random window Count's
// answer.
func TestSearchBatchCountMatchesCount(t *testing.T) {
	tree, _ := batchTree(t, 32, 4)
	qs := append([]Rect{R2(-1, -1, 2, 2), R2(-5, -5, -1, -1)}, batchQueries(150)...)
	for _, workers := range []int{0, 1, 3, 8} {
		counts, err := tree.SearchBatchCount(qs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if counts[0] != tree.Len() || counts[1] != 0 {
			t.Fatalf("workers=%d: everything counts %d (Len %d), nothing counts %d", workers, counts[0], tree.Len(), counts[1])
		}
		for i, q := range qs {
			want, err := tree.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if counts[i] != want {
				t.Fatalf("workers=%d query %d: batch count %d, Count %d", workers, i, counts[i], want)
			}
		}
	}
}

// TestSingleShardBatchReproducesSeedMisses is the paper-reproduction
// guarantee: a single-shard tree queried through SearchBatch with one
// worker produces exactly the buffer-miss counts of a plain sequential
// Search loop over the same queries.
func TestSingleShardBatchReproducesSeedMisses(t *testing.T) {
	qs := batchQueries(300)

	seq, _ := batchTree(t, 10, 0)
	if err := seq.DropCaches(); err != nil {
		t.Fatal(err)
	}
	seq.ResetStats()
	for _, q := range qs {
		if _, err := seq.Count(q); err != nil {
			t.Fatal(err)
		}
	}
	wantMisses := seq.Stats().DiskReads

	batch, _ := batchTree(t, 10, 1)
	if err := batch.DropCaches(); err != nil {
		t.Fatal(err)
	}
	batch.ResetStats()
	if _, err := batch.SearchBatchCount(qs, 1); err != nil {
		t.Fatal(err)
	}
	if got := batch.Stats().DiskReads; got != wantMisses {
		t.Fatalf("single-shard one-worker batch misses = %d, sequential loop = %d", got, wantMisses)
	}
}

// TestSearchBatchShardedStats checks the sharded buffer's merged
// accounting: every logical read of the batch lands in the aggregated
// Stats, and misses stay within [cold-tree minimum, logical total].
func TestSearchBatchShardedStats(t *testing.T) {
	tree, _ := batchTree(t, 64, 8)
	qs := batchQueries(200)
	if err := tree.DropCaches(); err != nil {
		t.Fatal(err)
	}
	tree.ResetStats()
	if _, err := tree.SearchBatchCount(qs, 8); err != nil {
		t.Fatal(err)
	}
	s := tree.Stats()
	if s.LogicalReads == 0 {
		t.Fatal("batch produced no logical reads")
	}
	if s.DiskReads == 0 || s.DiskReads > s.LogicalReads {
		t.Fatalf("implausible miss accounting: %+v", s)
	}
}

// TestSearchBatchGauges: a batch aborted by a page-read error returns that
// error, at one worker and at four, and the tree answers the next batch.
// (The gauges this test once read went with the batch executor: a batch
// keeps no counters of its own.)
func TestSearchBatchGauges(t *testing.T) {
	qs := batchQueries(100)
	tree, fp := faultyBatchTree(t, 16)
	boom := errors.New("injected read failure")
	var reads atomic.Int64
	fp.FailReads(func(storage.PageID) error {
		if reads.Add(1) > 200 {
			return boom
		}
		return nil
	})
	for _, workers := range []int{1, 4} {
		if err := tree.DropCaches(); err != nil {
			t.Fatal(err)
		}
		reads.Store(0)
		if _, err := tree.SearchBatchCount(qs, workers); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: batch err = %v, want the injected failure", workers, err)
		}
	}
	fp.FailReads(nil)
	if _, err := tree.SearchBatchCount(qs, 4); err != nil {
		t.Fatalf("batch after the failure: %v", err)
	}
}

// TestBufferShardsValidation pins the Options contract: a bad buffer size
// or shard count from the caller is an error from every constructor that
// builds a buffer, never a panic.
func TestBufferShardsValidation(t *testing.T) {
	dir := t.TempDir()
	valid := filepath.Join(dir, "valid.str")
	built, err := Create(valid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.BulkLoad(randItems(100, 62), PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{BufferPages: -1},
		{BufferShards: -2},
		{BufferShards: 3},                 // not a power of two
		{BufferPages: 3, BufferShards: 4}, // more shards than pages
	} {
		if _, err := New(opts); err == nil {
			t.Errorf("New(%+v) accepted", opts)
		}
		if _, err := Create(filepath.Join(dir, "new.str"), opts); err == nil {
			t.Errorf("Create(%+v) accepted", opts)
		}
		if _, err := Open(valid, opts); err == nil {
			t.Errorf("Open(%+v) accepted", opts)
		}
	}
	tree, err := New(Options{BufferPages: 64, BufferShards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(randItems(500, 63), PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckPackedInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSearchBatchOnDynamicTree exercises the batch path on a tree built by
// inserts (no packing assumptions) and after deletes.
func TestSearchBatchOnDynamicTree(t *testing.T) {
	tree, err := New(Options{Capacity: 16, BufferPages: 32, BufferShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(1500, 64)
	for _, it := range items {
		if err := tree.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:200] {
		ok, err := tree.Delete(it.Rect, it.ID)
		if err != nil || !ok {
			t.Fatalf("delete: ok=%v err=%v", ok, err)
		}
	}
	qs := batchQueries(100)
	counts, err := tree.SearchBatchCount(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := tree.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if counts[i] != want {
			t.Fatalf("query %d: %d != %d", i, counts[i], want)
		}
	}
}

// faultyBatchTree is batchTree's item set packed on a FaultyPager behind a
// one-shard buffer of the given size.
func faultyBatchTree(t *testing.T, bufferPages int) (*Tree, *storage.FaultyPager) {
	t.Helper()
	fp := storage.NewFaultyPager(storage.NewMemPager(storage.DefaultPageSize))
	tree, err := NewOnPager(fp, Options{Capacity: 16, BufferPages: bufferPages})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(randItems(5000, 61), PackSTR); err != nil {
		t.Fatal(err)
	}
	return tree, fp
}

// batchReads is SearchBatch and SearchBatchCount of qs at workers, each as
// a call returning the batch's error.
func batchReads(tree *Tree, qs []Rect, workers int) []func() error {
	return []func() error{
		func() error { _, err := tree.SearchBatch(qs, workers); return err },
		func() error { _, err := tree.SearchBatchCount(qs, workers); return err },
	}
}

// TestBatchEmpty: an empty batch reads no page and returns an empty answer
// and no error, at every worker count.
func TestBatchEmpty(t *testing.T) {
	tree, fp := faultyBatchTree(t, 16)
	if err := tree.DropCaches(); err != nil {
		t.Fatal(err)
	}
	fp.FailReads(func(storage.PageID) error {
		t.Error("an empty batch read a page")
		return nil
	})
	for _, workers := range []int{0, 1, 4} {
		if got, err := tree.SearchBatch(nil, workers); err != nil || len(got) != 0 {
			t.Fatalf("workers=%d: SearchBatch(nil) = %v, %v", workers, got, err)
		}
		if got, err := tree.SearchBatchCount([]Rect{}, workers); err != nil || len(got) != 0 {
			t.Fatalf("workers=%d: SearchBatchCount(empty) = %v, %v", workers, got, err)
		}
	}
}

// TestBatchErrorPropagates proves a worker's page-read error reaches the
// caller instead of being dropped, for every pool size and both batch
// reads, and that errors.Is finds the read error itself in it.
func TestBatchErrorPropagates(t *testing.T) {
	sentinel := errors.New("page read failed")
	tree, fp := faultyBatchTree(t, 16)
	qs := query.Points(100, 11)
	var reads atomic.Int64
	fp.FailReads(func(storage.PageID) error {
		if reads.Add(1) == 37 {
			return sentinel
		}
		return nil
	})
	for _, workers := range []int{1, 2, 8} {
		for _, run := range batchReads(tree, qs, workers) {
			if err := tree.DropCaches(); err != nil {
				t.Fatal(err)
			}
			reads.Store(0)
			if err := run(); !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d: batch err = %v, want the read error", workers, err)
			}
		}
	}
}

// TestBatchErrorCarriesQueryIndex pins the first-error wrapping: the
// returned error names the failing query's index ("query %d: ...") so
// server logs can identify the offending request, on the sequential path
// and the worker-pool path. Only query 7 reads the page that fails: the
// page is picked as one its window reads and no other window does.
func TestBatchErrorCarriesQueryIndex(t *testing.T) {
	sentinel := errors.New("page read failed")
	tree, fp := faultyBatchTree(t, 16)
	qs := make([]Rect, 10)
	for i := range qs {
		x := 0.1*float64(i) + 0.03
		qs[i] = R2(x, x, x+0.01, x+0.01)
	}
	readBy := func(q Rect) map[storage.PageID]bool {
		pages := map[storage.PageID]bool{}
		fp.FailReads(func(id storage.PageID) error { pages[id] = true; return nil })
		if err := tree.DropCaches(); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.Count(q); err != nil {
			t.Fatal(err)
		}
		fp.FailReads(nil)
		return pages
	}
	others := map[storage.PageID]bool{}
	for i, q := range qs {
		if i != 7 {
			for id := range readBy(q) {
				others[id] = true
			}
		}
	}
	bad := storage.NilPage
	for id := range readBy(qs[7]) {
		if !others[id] {
			bad = id
		}
	}
	if bad == storage.NilPage {
		t.Fatal("query 7 reads no page of its own")
	}
	fp.FailReads(func(id storage.PageID) error {
		if id == bad {
			return sentinel
		}
		return nil
	})
	for _, workers := range []int{1, 4} {
		for _, run := range batchReads(tree, qs, workers) {
			if err := tree.DropCaches(); err != nil {
				t.Fatal(err)
			}
			err := run()
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d: err = %v, want the wrapped read error", workers, err)
			}
			if !strings.HasPrefix(err.Error(), "query 7: ") {
				t.Fatalf("workers=%d: err %q does not name query 7", workers, err)
			}
		}
	}
}

// TestBatchErrorStopsBatch checks a batch abandons its remaining queries
// after a failure rather than grinding through them: once reads start
// failing, every query left would read at least one page (the buffer holds
// 8 of the tree's pages), so a batch that ran on would call the read hook
// about once per query.
func TestBatchErrorStopsBatch(t *testing.T) {
	const total = 10000
	tree, fp := faultyBatchTree(t, 8)
	qs := query.Points(total, 13)
	var reads atomic.Int64
	fp.FailReads(func(storage.PageID) error {
		n := reads.Add(1)
		if n < 5 {
			return nil
		}
		if n > 5 {
			// Reads after the failure take long enough that a worker's
			// thread kept off the CPU between its error and the stop flag
			// does not decide the test.
			time.Sleep(20 * time.Microsecond)
		}
		return errors.New("boom")
	})
	for _, workers := range []int{1, 4} {
		for _, run := range batchReads(tree, qs, workers) {
			if err := tree.DropCaches(); err != nil {
				t.Fatal(err)
			}
			reads.Store(0)
			if err := run(); err == nil {
				t.Fatalf("workers=%d: error lost", workers)
			}
			if n := reads.Load(); n >= total/10 {
				t.Fatalf("workers=%d: %d page reads for %d queries: the batch ran on after its error", workers, n, total)
			}
		}
	}
}

// TestBatchConcurrentStress runs batches of both kinds at eight workers
// from four goroutines at once over one sharded tree, so the race detector
// sees the workers' claims and result writes and the shared buffer, and
// every answer still equals Count's. Each shard holds 64 frames, more than
// the 32 workers can pin at once.
func TestBatchConcurrentStress(t *testing.T) {
	tree, _ := batchTree(t, 512, 8)
	qs := query.Regions(500, query.Extent1Pct, 17)
	want := make([]int, len(qs))
	for i, q := range qs {
		n, err := tree.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			errs <- func() error {
				lists, err := tree.SearchBatch(qs, 8)
				if err != nil {
					return err
				}
				counts, err := tree.SearchBatchCount(qs, 8)
				if err != nil {
					return err
				}
				for i := range qs {
					if len(lists[i]) != want[i] || counts[i] != want[i] {
						return fmt.Errorf("query %d: %d items, count %d, want %d", i, len(lists[i]), counts[i], want[i])
					}
				}
				return nil
			}()
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
