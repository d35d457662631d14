package strtree

import (
	"context"
	"errors"
	"testing"

	"strtree/internal/storage"
)

// buildCtxTree packs a small uniform tree for the context tests.
func buildCtxTree(t *testing.T) *Tree {
	t.Helper()
	tree, err := New(Options{Capacity: 16, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 0, 900)
	for x := 0; x < 30; x++ {
		for y := 0; y < 30; y++ {
			items = append(items, Item{
				Rect: R2(float64(x)/30, float64(y)/30, float64(x)/30+0.02, float64(y)/30+0.02),
				ID:   uint64(x*30 + y),
			})
		}
	}
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestSearchContextMatchesSearch checks the context path returns exactly
// the plain path's results when the context never fires.
func TestSearchContextMatchesSearch(t *testing.T) {
	tree := buildCtxTree(t)
	defer func() { _ = tree.Close() }()
	q := R2(0.2, 0.2, 0.5, 0.5)
	want, err := tree.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.CountContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("CountContext = %d, Count = %d", got, want)
	}
	n := 0
	if err := tree.SearchContext(context.Background(), q, func(Item) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("SearchContext streamed %d items, want %d", n, want)
	}
}

// TestSearchContextCancelled checks a pre-cancelled context stops the
// traversal immediately with context.Canceled and touches no pages.
func TestSearchContextCancelled(t *testing.T) {
	tree := buildCtxTree(t)
	defer func() { _ = tree.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tree.ResetStats()
	err := tree.SearchContext(ctx, R2(0, 0, 1, 1), func(Item) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reads := tree.Stats().LogicalReads; reads != 0 {
		t.Fatalf("cancelled search still fetched %d pages", reads)
	}
}

// TestSearchContextDeadlineMidQuery cancels while streaming: the error
// surfaces and the traversal stops within one node visit.
func TestSearchContextDeadlineMidQuery(t *testing.T) {
	tree := buildCtxTree(t)
	defer func() { _ = tree.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	err := tree.SearchContext(ctx, R2(0, 0, 1, 1), func(Item) bool {
		n++
		if n == 10 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n < 10 || n >= tree.Len() {
		t.Fatalf("streamed %d items before cancellation took effect", n)
	}
}

func TestNearestKContext(t *testing.T) {
	tree := buildCtxTree(t)
	defer func() { _ = tree.Close() }()
	want, wantD, err := tree.NearestK(Pt2(0.5, 0.5), 5)
	if err != nil {
		t.Fatal(err)
	}
	got, gotD, err := tree.NearestKContext(context.Background(), Pt2(0.5, 0.5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || gotD[i] != wantD[i] {
			t.Fatalf("result %d: got (%d, %v), want (%d, %v)", i, got[i].ID, gotD[i], want[i].ID, wantD[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tree.NearestKContext(ctx, Pt2(0.5, 0.5), 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled NearestKContext err = %v", err)
	}
}

// TestSearchBatchContext cross-checks the batch context path against
// SearchBatch and pins cancellation behavior.
func TestSearchBatchContext(t *testing.T) {
	tree := buildCtxTree(t)
	defer func() { _ = tree.Close() }()
	qs := []Rect{R2(0, 0, 0.3, 0.3), R2(0.4, 0.4, 0.6, 0.6), R2(0.9, 0.9, 1, 1)}
	want, err := tree.SearchBatch(qs, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.SearchBatchContext(context.Background(), qs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d matches, want %d", i, len(got[i]), len(want[i]))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tree.SearchBatchContext(ctx, qs, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v", err)
	}
}

// TestNewOnPager proves the pager-injection constructor builds a working
// tree on a wrapped (here: faulty, unarmed) pager and propagates injected
// failures through queries.
func TestNewOnPager(t *testing.T) {
	fp := storage.NewFaultyPager(storage.NewMemPager(4096))
	tree, err := NewOnPager(fp, Options{Capacity: 16, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tree.Close() }()
	items := make([]Item, 200)
	for i := range items {
		items[i] = Item{Rect: R2(float64(i), 0, float64(i)+1, 1), ID: uint64(i)}
	}
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	if n, err := tree.Count(R2(0, 0, 200, 1)); err != nil || n != 200 {
		t.Fatalf("count = %d, %v", n, err)
	}
	boom := errors.New("injected read failure")
	fp.FailReads(func(storage.PageID) error { return boom })
	if err := tree.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Count(R2(0, 0, 200, 1)); !errors.Is(err, boom) {
		t.Fatalf("query err = %v, want injected failure", err)
	}
	fp.FailReads(nil)
}
