package strtree

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

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
// Search calls — same matches, same per-query order — across worker counts,
// on a sharded buffer small enough to evict constantly.
func TestSearchBatchMatchesSequential(t *testing.T) {
	tree, _ := batchTree(t, 64, 8)
	qs := batchQueries(200)
	want := make([][]Item, len(qs))
	for i, q := range qs {
		want[i] = searchItems(t, tree, q)
	}
	for _, workers := range []int{1, 4, 8} {
		got, err := tree.SearchBatch(qs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
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
	}
}

// TestSearchBatchCountMatchesCount cross-checks the count path.
func TestSearchBatchCountMatchesCount(t *testing.T) {
	tree, _ := batchTree(t, 32, 4)
	qs := batchQueries(150)
	counts, err := tree.SearchBatchCount(qs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := tree.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if counts[i] != want {
			t.Fatalf("query %d: batch count %d, Count %d", i, counts[i], want)
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

// TestSearchBatchGauges reads the counters strserve exports as
// strserve_batch_*: after a batch, clean or aborted by a page-read error,
// nothing is left queued or active and every batch started is done; a
// clean batch counts each of its queries once.
func TestSearchBatchGauges(t *testing.T) {
	settled := func(workers int, s BatchExecStats) {
		t.Helper()
		if s.QueuedQueries != 0 || s.ActiveWorkers != 0 || s.BatchesStarted != s.BatchesDone {
			t.Fatalf("workers=%d: gauges left at %+v", workers, s)
		}
	}
	qs := batchQueries(100)
	for _, workers := range []int{1, 4} {
		tree, _ := batchTree(t, 64, 4)
		if _, err := tree.SearchBatchCount(qs, workers); err != nil {
			t.Fatal(err)
		}
		s := tree.BatchExecStats()
		settled(workers, s)
		if s.BatchesDone != 1 || s.QueriesDone != uint64(len(qs)) {
			t.Fatalf("workers=%d: %+v, want one batch of %d queries", workers, s, len(qs))
		}
	}

	fp := storage.NewFaultyPager(storage.NewMemPager(storage.DefaultPageSize))
	tree, err := NewOnPager(fp, Options{Capacity: 16, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(randItems(5000, 61), PackSTR); err != nil {
		t.Fatal(err)
	}
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
		before := tree.BatchExecStats()
		if _, err := tree.SearchBatchCount(qs, workers); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: batch err = %v, want the injected failure", workers, err)
		}
		s := tree.BatchExecStats()
		settled(workers, s)
		if done := s.QueriesDone - before.QueriesDone; done == 0 || done >= uint64(len(qs)) {
			t.Fatalf("workers=%d: %d of %d queries ran; the batch did not stop mid-way", workers, done, len(qs))
		}
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
