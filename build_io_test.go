package strtree

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"strtree/internal/storage"
)

// TestBulkLoadWritesEachPageOnce pins a bulk load's physical I/O: whatever
// the pool size and the worker count, building reads no page and writes
// every node page, and the meta page, exactly once. The page writer takes
// no frame — it writes runs of consecutive pages past the pool — so even a
// one-frame pool keeps the meta page resident from Create to the final
// Flush. (With the write-behind goroutine fetching pages the packing
// goroutine had created, a pool smaller than the queue between them once
// evicted each zero page before it was filled — written as zeros, read
// back, written again — and how often depended on scheduling; and while
// the build pinned frames, a one-frame pool evicted the meta page and read
// it back.)
func TestBulkLoadWritesEachPageOnce(t *testing.T) {
	items := randItems(100000, 7)
	loads := map[string]func(*Tree) error{
		"in-memory": func(tr *Tree) error { return tr.BulkLoad(append([]Item(nil), items...), PackSTR) },
		"external": func(tr *Tree) error {
			return tr.BulkLoadExternal(itemSource(items), ExternalOptions{RunSize: 20000, TmpDir: t.TempDir()})
		},
	}
	for kind, load := range loads {
		for _, pages := range []int{1, 8, 256, 4096} {
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

// TestBulkLoadWriteSequence pins the order in which a bulk load writes its
// pages. The packer fills runs of nodes on up to Workers goroutines but
// hands them to the pager strictly in run order, one call per stretch of
// consecutive page ids, so the sequence of WritePage calls — (first page,
// pages) — is the same at every worker count, for the in-memory and the
// external build alike, and the pages come out in the order the loader
// reserved them: on a fresh file 1, 2, 3, …, so the calls ascend strictly;
// on a tree with freed pages the free list's ids first, as it hands them
// out, and then fresh ones.
func TestBulkLoadWriteSequence(t *testing.T) {
	type call struct {
		first storage.PageID
		pages int
	}
	// build bulk-loads a tree on a trace pager, after prepare, and returns
	// the node-page writes of the load and the pages in reservation order.
	build := func(t *testing.T, opts Options, prepare func(*Tree), load func(*Tree) error) (calls []call, reserved []storage.PageID) {
		t.Helper()
		tp := &tracePager{Pager: storage.NewMemPager(storage.DefaultPageSize)}
		tr, err := NewOnPager(tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if prepare != nil {
			prepare(tr)
		}
		if err := tr.Flush(); err != nil { // from here on every write is the load's
			t.Fatal(err)
		}
		free, next := tr.inner.FreePages(), storage.PageID(tp.NumPages())
		tp.writes, tp.pages = nil, nil
		if err := load(tr); err != nil {
			t.Fatal(err)
		}
		for i, id := range tp.writes {
			if id != 0 { // page 0 is the meta page
				calls = append(calls, call{id, tp.pages[i]})
			}
		}
		for built := tr.LastBuildStats().Pages; len(reserved) < built; {
			if n := len(free); n > 0 {
				reserved, free = append(reserved, free[n-1]), free[:n-1]
			} else {
				reserved, next = append(reserved, next), next+1
			}
		}
		return calls, reserved
	}
	check := func(t *testing.T, calls []call, reserved []storage.PageID) {
		t.Helper()
		var written []storage.PageID
		for _, c := range calls {
			if c.pages < 1 || c.pages > 64 {
				t.Fatalf("a call wrote %d pages from page %d, want 1 to 64 (one run at most)", c.pages, c.first)
			}
			for i := range c.pages {
				written = append(written, c.first+storage.PageID(i))
			}
		}
		if len(written) != len(reserved) {
			t.Fatalf("%d pages written, %d reserved", len(written), len(reserved))
		}
		for i := range written {
			if written[i] != reserved[i] {
				t.Fatalf("page %d written is %d, page %d reserved is %d", i, written[i], i, reserved[i])
			}
		}
	}
	items := map[int][]Item{2: randItems(20000, 21), 3: tiedCubeItems(20000, 22)}
	loads := map[string]func(t *testing.T, dims int) func(*Tree) error{
		"in-memory": func(_ *testing.T, dims int) func(*Tree) error {
			return func(tr *Tree) error { return tr.BulkLoad(append([]Item(nil), items[dims]...), PackSTR) }
		},
		"external": func(t *testing.T, dims int) func(*Tree) error {
			return func(tr *Tree) error {
				return tr.BulkLoadExternal(itemSource(items[dims]), ExternalOptions{RunSize: 5000, TmpDir: t.TempDir()})
			}
		},
	}
	fresh := 0 // calls of the fresh 2-D build: one per run
	for _, dims := range []int{2, 3} {
		var want []call
		for _, kind := range []string{"in-memory", "external"} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%dd/%s/workers%d", dims, kind, workers), func(t *testing.T) {
					calls, reserved := build(t, Options{Dims: dims, Capacity: 16, Workers: workers}, nil, loads[kind](t, dims))
					check(t, calls, reserved)
					for i := 1; i < len(calls); i++ {
						if end := calls[i-1].first + storage.PageID(calls[i-1].pages); calls[i].first < end {
							t.Fatalf("call %d writes from page %d, the one before it up to page %d", i, calls[i].first, end)
						}
					}
					if want == nil {
						want = calls
					} else if !slices.Equal(calls, want) {
						t.Fatalf("%d calls %v, the 1-worker in-memory build made %d: %v", len(calls), calls, len(want), want)
					}
					if len(calls) < 20 {
						t.Fatalf("%d calls: too few runs to pin an order", len(calls))
					}
					if dims == 2 {
						fresh = len(calls)
					}
				})
			}
		}
	}
	churn := randItems(3000, 23)
	var want []call
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("recycled/workers%d", workers), func(t *testing.T) {
			calls, reserved := build(t, Options{Capacity: 16, Workers: workers}, func(tr *Tree) {
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
			}, loads["in-memory"](t, 2))
			check(t, calls, reserved)
			if len(calls) <= fresh {
				t.Fatalf("%d calls, no more than the %d runs of a fresh build: no recycled stretch was split", len(calls), fresh)
			}
			if want == nil {
				want = calls
			} else if !slices.Equal(calls, want) {
				t.Fatalf("%d calls %v, the 1-worker build made %d: %v", len(calls), calls, len(want), want)
			}
		})
	}
}

// TestBulkLoadRecyclesFreedPages drives the loader's other page source: a
// tree grown by Insert and emptied by Delete is at height 0 with a free
// list, whose pages may sit dirty in the pool or have been evicted. The
// bulk load takes those ids first — it pins none of them: it writes them
// with Pool.WritePages, which drops any frame the pool still caches of a
// page — and must come out packed, complete and with no page referenced
// twice.
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
// the write that extends it — from the packer's run writes, from Flush
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

// tracePager records the sequence of WritePage calls passing through it:
// each call's first page, and beside it how many pages it wrote.
type tracePager struct {
	storage.Pager
	writes []storage.PageID
	pages  []int
}

func (p *tracePager) WritePage(id storage.PageID, buf []byte) error {
	p.writes = append(p.writes, id)
	p.pages = append(p.pages, len(buf)/p.PageSize())
	return p.Pager.WritePage(id, buf)
}
