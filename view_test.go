package strtree

import (
	"errors"
	"sync"
	"testing"
)

func TestViewReadOnly(t *testing.T) {
	tree, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(500, 51)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	v, err := tree.View(32)
	if err != nil {
		t.Fatal(err)
	}
	// Reads agree with the base tree.
	q := R2(0.2, 0.2, 0.6, 0.6)
	a, err := tree.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("view count %d != base count %d", b, a)
	}
	// Mutations are rejected.
	if err := v.Insert(R2(0, 0, 0.1, 0.1), 9999); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("view insert: %v", err)
	}
	if _, err := v.Delete(items[0].Rect, items[0].ID); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("view delete: %v", err)
	}
	if err := v.BulkLoad(items, PackSTR); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("view bulk load: %v", err)
	}
	other, _ := New(Options{})
	if err := other.CompactInto(v, PackSTR); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("compact into view: %v", err)
	}
	// View stats are independent.
	tree.ResetStats()
	if _, err := v.Count(q); err != nil {
		t.Fatal(err)
	}
	if tree.Stats().LogicalReads != 0 {
		t.Fatal("view reads leaked into base stats")
	}
	if v.Stats().LogicalReads == 0 {
		t.Fatal("view stats not counting")
	}
	// Closing the view leaves the base usable.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Count(q); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentViews(t *testing.T) {
	tree, err := New(Options{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(3000, 52)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	q := R2(0.3, 0.3, 0.5, 0.5)
	want, err := tree.Count(q)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		v, err := tree.View(16)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(v *Tree) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := v.Count(q)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- errors.New("concurrent view returned wrong count")
					return
				}
			}
		}(v)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestViewSeesFlushedState(t *testing.T) {
	tree, err := New(Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range randItems(100, 53) {
		if err := tree.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 100 {
		t.Fatalf("view len = %d", v.Len())
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
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
