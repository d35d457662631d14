package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"strtree/internal/storage"
)

var errInjected = errors.New("injected fault")

// faultyPool builds a pool over a FaultyPager with n zeroed pages.
func faultyPool(t *testing.T, capacity, n int) (*Pool, *storage.FaultyPager) {
	t.Helper()
	inner := storage.NewMemPager(64)
	for i := 0; i < n; i++ {
		if _, err := inner.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	fp := storage.NewFaultyPager(inner)
	return NewPool(fp, capacity), fp
}

func TestFetchSurfacesReadError(t *testing.T) {
	p, fp := faultyPool(t, 4, 4)
	fp.FailReads(func(id storage.PageID) error {
		if id == 2 {
			return errInjected
		}
		return nil
	})
	if _, err := p.Fetch(2); !errors.Is(err, errInjected) {
		t.Fatalf("read error not surfaced: %v", err)
	}
	// The failed fetch must not leave a phantom frame.
	if p.Len() != 0 {
		t.Fatalf("pool holds %d frames after failed fetch", p.Len())
	}
	// Stats: the miss never completed, so no disk read is counted.
	if s := p.Stats(); s.DiskReads != 0 {
		t.Fatalf("failed read counted: %+v", s)
	}
	// Other pages still work.
	f, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
}

func TestEvictionSurfacesWriteError(t *testing.T) {
	p, fp := faultyPool(t, 1, 3)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	p.Release(f)
	fp.FailWrites(func(storage.PageID) error { return errInjected })
	// Evicting dirty page 0 to load page 1 must fail loudly, not drop the
	// data.
	if _, err := p.Fetch(1); !errors.Is(err, errInjected) {
		t.Fatalf("eviction write error not surfaced: %v", err)
	}
	// The dirty page is still resident and intact.
	fp.FailWrites(nil)
	f2, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f2)
	if s := p.Stats(); s.Evictions != 0 {
		t.Fatalf("eviction recorded despite failure: %+v", s)
	}
}

func TestFlushAllSurfacesWriteError(t *testing.T) {
	p, fp := faultyPool(t, 4, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	p.Release(f)
	fp.FailWrites(func(storage.PageID) error { return errInjected })
	if err := p.FlushAll(); !errors.Is(err, errInjected) {
		t.Fatalf("flush error not surfaced: %v", err)
	}
	// After the fault clears, flush succeeds and the page lands.
	fp.FailWrites(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateSurfacesAllocError(t *testing.T) {
	p, fp := faultyPool(t, 4, 0)
	fp.FailAllocs(func() error { return errInjected })
	if _, err := p.Create(); !errors.Is(err, errInjected) {
		t.Fatalf("alloc error not surfaced: %v", err)
	}
}

// TestWriteBackInPageOrder: FlushAll and Invalidate write dirty frames in
// page order, shard by shard, so a pager that fails the k-th write has seen
// the same k−1 pages written before it on every run — the schedule a crash
// test replays — whatever order the pages were dirtied in and whatever
// order Go's map ranges in. A flush that does not fail writes each dirty
// page once.
func TestWriteBackInPageOrder(t *testing.T) {
	const pages, dirty, failAt = 96, 40, 17
	for _, shards := range []int{1, 4} {
		for _, op := range []string{"FlushAll", "Invalidate"} {
			var want []storage.PageID
			for run := 0; run < 5; run++ {
				inner := storage.NewMemPager(64)
				for i := 0; i < pages; i++ {
					if _, err := inner.Alloc(); err != nil {
						t.Fatal(err)
					}
				}
				fp := storage.NewFaultyPager(inner)
				p, err := NewSharded(fp, pages, shards)
				if err != nil {
					t.Fatal(err)
				}
				// One dirty set, dirtied in another order on every run.
				set := rand.New(rand.NewSource(1)).Perm(pages)[:dirty]
				rand.New(rand.NewSource(int64(run))).Shuffle(dirty, func(i, j int) { set[i], set[j] = set[j], set[i] })
				for _, id := range set {
					f, err := p.Fetch(storage.PageID(id))
					if err != nil {
						t.Fatal(err)
					}
					f.MarkDirty()
					p.Release(f)
				}
				flush := p.FlushAll
				if op == "Invalidate" {
					flush = p.Invalidate
				}
				var written []storage.PageID
				fp.FailWrites(func(id storage.PageID) error {
					if len(written) == failAt-1 {
						return errInjected
					}
					written = append(written, id)
					return nil
				})
				if err := flush(); !errors.Is(err, errInjected) {
					t.Fatalf("%s, %d shards: %v, want the failure of write %d", op, shards, err, failAt)
				}
				if run == 0 {
					want = written
				} else if fmt.Sprint(written) != fmt.Sprint(want) {
					t.Fatalf("%s, %d shards, run %d: pages written before write %d failed %v, run 0 wrote %v",
						op, shards, run, failAt, written, want)
				}
				fp.FailWrites(nil)
				before := inner.Stats().Writes
				if err := flush(); err != nil {
					t.Fatal(err)
				}
				if got := inner.Stats().Writes - before; got != dirty-(failAt-1) {
					t.Fatalf("%s, %d shards: the retry wrote %d pages, want the %d still dirty", op, shards, got, dirty-(failAt-1))
				}
				if got := p.Stats().DiskWrites; got != dirty {
					t.Fatalf("%s, %d shards: %d writes counted for %d dirty pages", op, shards, got, dirty)
				}
			}
		}
	}
}
