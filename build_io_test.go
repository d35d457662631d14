package strtree

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"strtree/internal/storage"
)

// TestBulkLoadWritesEachPageOnce pins a bulk load's physical I/O: whatever
// the pool size and the worker count, building reads no page and writes
// every node page, and the meta page, exactly once. With the write-behind
// goroutine fetching pages the packing goroutine had created, a pool
// smaller than the queue between them evicted each zero page before it was
// filled — written as zeros, read back, written again — and how often
// depended on scheduling.
func TestBulkLoadWritesEachPageOnce(t *testing.T) {
	items := randItems(100000, 7)
	loads := map[string]func(*Tree) error{
		"in-memory": func(tr *Tree) error { return tr.BulkLoad(append([]Item(nil), items...), PackSTR) },
		"external": func(tr *Tree) error {
			return tr.BulkLoadExternal(itemSource(items), ExternalOptions{RunSize: 20000, TmpDir: t.TempDir()})
		},
	}
	for kind, load := range loads {
		for _, pages := range []int{8, 256, 4096} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/pool%d/workers%d", kind, pages, workers), func(t *testing.T) {
					pg := storage.NewMemPager(storage.DefaultPageSize)
					tr, err := NewOnPager(pg, Options{Workers: workers, BufferPages: pages})
					if err != nil {
						t.Fatal(err)
					}
					defer tr.Close()
					if err := load(tr); err != nil { // ends with the loader's own Flush
						t.Fatal(err)
					}
					built, st := tr.LastBuildStats().Pages, pg.Stats()
					if built != pg.NumPages()-1 {
						t.Fatalf("built %d pages on a pager of %d", built, pg.NumPages())
					}
					if st.Reads != 0 || st.Writes != int64(built)+1 {
						t.Fatalf("%d pager reads and %d writes for %d nodes, want 0 reads and %d writes (each node and the meta page once)",
							st.Reads, st.Writes, built, built+1)
					}
					if err := tr.CheckPackedInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestBulkLoadOneFramePool: the build keeps the meta page pinned, which a
// pool with a single frame cannot afford beside the page being filled. It
// gives the pin up instead of failing, and pays what the pin saves.
func TestBulkLoadOneFramePool(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pg := storage.NewMemPager(storage.DefaultPageSize)
		tr, err := NewOnPager(pg, Options{Workers: workers, BufferPages: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(randItems(5000, 9), PackSTR); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		built, st := tr.LastBuildStats().Pages, pg.Stats()
		if st.Reads != 1 || st.Writes != int64(built)+2 {
			t.Fatalf("workers %d: %d reads, %d writes for %d nodes, want the meta page evicted and read back once", workers, st.Reads, st.Writes, built)
		}
		if err := tr.CheckPackedInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBulkLoadRecyclesFreedPages drives the loader's other page source: a
// tree grown by Insert and emptied by Delete is at height 0 with a free
// list, whose pages may sit dirty in the pool or have been evicted. The
// bulk load takes those ids first — pinning them with Fetch, not Adopt —
// and must come out packed, complete and with no page referenced twice.
func TestBulkLoadRecyclesFreedPages(t *testing.T) {
	churn := randItems(3000, 11)
	items := randItems(20000, 12)
	queries := make([]Rect, 40)
	rng := rand.New(rand.NewSource(13))
	for i := range queries {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		queries[i] = R2(x, y, x+0.1, y+0.1)
	}
	for _, workers := range []int{1, 2} {
		for _, pages := range []int{8, 256} {
			t.Run(fmt.Sprintf("workers%d/pool%d", workers, pages), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "recycle.str")
				tr, err := Create(path, Options{Capacity: 16, Workers: workers, BufferPages: pages})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				for _, it := range churn {
					if err := tr.Insert(it.Rect, it.ID); err != nil {
						t.Fatal(err)
					}
				}
				for _, it := range churn {
					if ok, err := tr.Delete(it.Rect, it.ID); err != nil || !ok {
						t.Fatalf("delete %d: found %v, %v", it.ID, ok, err)
					}
				}
				free := len(tr.inner.FreePages())
				grown := tr.pager.NumPages()
				if tr.Height() != 0 || free == 0 {
					t.Fatalf("after deleting everything: height %d, %d free pages", tr.Height(), free)
				}
				if err := tr.BulkLoad(append([]Item(nil), items...), PackSTR); err != nil {
					t.Fatal(err)
				}
				built := tr.LastBuildStats().Pages
				if left := len(tr.inner.FreePages()); left != max(free-built, 0) {
					t.Fatalf("%d of %d free pages left after building %d nodes: freed pages go first", left, free, built)
				}
				if got, want := tr.pager.NumPages(), grown+max(built-free, 0); got != want {
					t.Fatalf("pager holds %d pages, want %d: %d before the build, %d nodes, %d recycled", got, want, grown, built, min(free, built))
				}
				// Check walks every page once and fails on a page reached twice
				// or a live page on the free list.
				if err := tr.CheckPackedInvariants(); err != nil {
					t.Fatal(err)
				}
				if tr.Len() != len(items) {
					t.Fatalf("Len = %d, want %d", tr.Len(), len(items))
				}
				for _, q := range queries {
					var got, want []uint64
					if err := tr.Search(q, func(it Item) bool { got = append(got, it.ID); return true }); err != nil {
						t.Fatal(err)
					}
					for _, it := range items {
						if it.Rect.Intersects(q) {
							want = append(want, it.ID)
						}
					}
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("query %v: %d answers, the linear scan has %d", q, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestBulkLoadSurfacesExtendingWriteError: the pager no longer writes a
// page when it allocates one, so a device that runs out of room says so at
// the write that extends it — from the write-behind goroutine, from Flush
// or from Close, whichever reaches the page first. The first error wins and
// comes back from BulkLoad; nothing panics; Close still closes.
func TestBulkLoadSurfacesExtendingWriteError(t *testing.T) {
	errFull := errors.New("device full")
	for _, workers := range []int{1, 2} {
		for _, pages := range []int{8, 4096} { // failing in an eviction write-back, and in the epilogue's flush
			fp := storage.NewFaultyPager(storage.NewMemPager(storage.DefaultPageSize))
			tr, err := NewOnPager(fp, Options{Workers: workers, BufferPages: pages})
			if err != nil {
				t.Fatal(err)
			}
			fp.FailWrites(func(id storage.PageID) error {
				if id >= 40 {
					return fmt.Errorf("page %d: %w", id, errFull)
				}
				return nil
			})
			err = tr.BulkLoad(randItems(20000, 14), PackSTR)
			if !errors.Is(err, errFull) {
				t.Fatalf("workers %d pool %d: BulkLoad = %v, want the extending write's error", workers, pages, err)
			}
			if err := tr.Flush(); !errors.Is(err, errFull) {
				t.Fatalf("workers %d pool %d: Flush = %v, want the write error", workers, pages, err)
			}
			if err := tr.Close(); !errors.Is(err, errFull) {
				t.Fatalf("workers %d pool %d: Close = %v, want the write error", workers, pages, err)
			}
		}
	}
}
