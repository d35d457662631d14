package strtree

import (
	"errors"
	"sync"
	"testing"
)

// TestConcurrentReaders holds Tree's read contract: goroutines querying
// one tree at once, through a sharded buffer too small to hold it, all
// get the sequential answer.
func TestConcurrentReaders(t *testing.T) {
	tree, err := New(Options{Capacity: 32, BufferPages: 32, BufferShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(3000, 52)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	qs := batchQueries(50)
	want := make([]int, len(qs))
	for i, q := range qs {
		if want[i], err = tree.Count(q); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				got, err := tree.Count(q)
				if err != nil {
					errs <- err
					return
				}
				if got != want[i] {
					errs <- errors.New("concurrent reader returned wrong count")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tree.Stats().Evictions == 0 {
		t.Fatal("the tree fit the buffer; nothing was evicted")
	}
}

func TestSearchWithinPublic(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.1, 0.1, 0.2, 0.2), 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.15, 0.15, 0.5, 0.5), 2); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	if err := tree.SearchWithin(R2(0, 0, 0.3, 0.3), func(it Item) bool {
		got = append(got, it.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("SearchWithin = %v", got)
	}
}
