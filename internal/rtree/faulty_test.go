package rtree

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
	"strtree/internal/storage"
)

var errInjected = errors.New("injected fault")

// faultyTree builds a packed tree whose pager can inject failures.
func faultyTree(t *testing.T, n int) (*Tree, *storage.FaultyPager) {
	t.Helper()
	fp := storage.NewFaultyPager(storage.NewMemPager(4096))
	pool := buffer.NewPool(fp, 64)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(randRects(n, 61), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	return tr, fp
}

func TestSearchSurfacesReadError(t *testing.T) {
	tr, fp := faultyTree(t, 300)
	fp.FailReads(func(id storage.PageID) error {
		if id != storage.PageID(tr.Root()) && id != 0 {
			return errInjected
		}
		return nil
	})
	err := tr.Search(geom.UnitSquare(), func(node.Entry) bool { return true })
	if !errors.Is(err, errInjected) {
		t.Fatalf("search did not surface the read error: %v", err)
	}
}

func TestInsertSurfacesAllocError(t *testing.T) {
	tr, fp := faultyTree(t, 300)
	fp.FailAllocs(func() error { return errInjected })
	// Fill one leaf until it must split, forcing an allocation.
	var err error
	for i := 0; i < 20; i++ {
		if err = tr.Insert(geom.R2(0.5, 0.5, 0.51, 0.51), uint64(1000+i)); err != nil {
			break
		}
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("insert did not surface the alloc error: %v", err)
	}
}

func TestDeleteSurfacesReadError(t *testing.T) {
	tr, fp := faultyTree(t, 300)
	entries := scanEntries(t, tr)
	if err := tr.Pool().Invalidate(); err != nil {
		t.Fatal(err)
	}
	reads := 0
	fp.FailReads(func(storage.PageID) error {
		reads++
		if reads > 2 {
			return errInjected
		}
		return nil
	})
	_, err := tr.Delete(entries[0].Rect, entries[0].Ref)
	if !errors.Is(err, errInjected) {
		t.Fatalf("delete did not surface the read error: %v", err)
	}
}

// callLog is a pager that records the first page and the page count of
// every WritePage call that reaches it.
type callLog struct {
	storage.Pager
	calls [][2]int
}

func (p *callLog) WritePage(id storage.PageID, buf []byte) error {
	p.calls = append(p.calls, [2]int{int(id), len(buf) / p.PageSize()})
	return p.Pager.WritePage(id, buf)
}

// TestBulkLoadSurfacesWriteError fails one run a bulk load writes, at
// Workers 1, 2 and 8, over a leaf level of 16 runs and a level above it of
// 4: for BulkLoad the first, a middle one and the last; for BulkLoadOrdered,
// fed runs of 2.5 chunks, a chunk it packs where it lies and one it carries
// over from the run before. The load and three more Flushes return the
// injected error; the runs before the failed one reach the pager, in order,
// and none after it does, however far the other workers had got; and no
// goroutine of the build outlives it.
func TestBulkLoadSurfacesWriteError(t *testing.T) {
	entries := randRects(4000, 62)
	cfg := Config{Dims: 2, Capacity: 4}
	clean := &callLog{Pager: storage.NewMemPager(4096)}
	tr, err := Create(buffer.NewPool(clean, 64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	runs := clean.calls[:len(clean.calls)-1] // the last write is the meta page's
	if len(runs) < 20 {
		t.Fatalf("the build wrote %d runs, want 16 leaf runs and more above", len(runs))
	}
	bulk := func(tr *Tree) error { return tr.BulkLoad(entries, xSortOrderer{}) }
	recs, _ := psort.Encode(entries, 1)
	recs = xSortOrderer{}.OrderRecords(recs, 2, cfg.Capacity)
	// Runs of 2.5 chunks: the loader packs chunks 0-1 where they lie and
	// carries half of chunk 2, which the second run completes before chunks
	// 3-4 are packed where they lie. So chunk 6 is packed where it lies, in
	// one call with chunk 5, and chunk 7 is carried like chunk 2.
	streamed := func(tr *Tree) error {
		return tr.BulkLoadOrdered(runStream(recs, 5*runPages*cfg.Capacity/2), xSortOrderer{})
	}
	loads := []struct {
		name string
		load func(*Tree) error
		fail int
	}{
		{"BulkLoad", bulk, 0},
		{"BulkLoad", bulk, len(runs) / 2},
		{"BulkLoad", bulk, len(runs) - 1},
		{"BulkLoadOrdered, a chunk packed in place", streamed, 6},
		{"BulkLoadOrdered, a carried chunk", streamed, 7},
	}
	for _, l := range loads {
		for _, workers := range []int{1, 2, 8} {
			before := runtime.NumGoroutine()
			seen := &callLog{Pager: storage.NewMemPager(4096)}
			fp := storage.NewFaultyPager(seen)
			cfg.Workers = workers
			tr, err := Create(buffer.NewPool(fp, 64), cfg)
			if err != nil {
				t.Fatal(err)
			}
			fp.FailWrites(func(id storage.PageID) error {
				if int(id) == runs[l.fail][0] {
					return errInjected
				}
				return nil
			})
			if err := l.load(tr); !errors.Is(err, errInjected) {
				t.Fatalf("%s, run %d, workers %d: load = %v, want the injected error", l.name, l.fail, workers, err)
			}
			for range 3 {
				if err := tr.Flush(); !errors.Is(err, errInjected) {
					t.Fatalf("%s, run %d, workers %d: Flush = %v, want the injected error", l.name, l.fail, workers, err)
				}
			}
			if got := seen.calls; !slices.Equal(got, runs[:l.fail]) {
				t.Fatalf("%s, run %d, workers %d: the pager saw the writes %v, want the %d runs before the failed one", l.name, l.fail, workers, got, l.fail)
			}
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 500 {
					t.Fatalf("%s, run %d, workers %d: %d goroutines live after the load, %d before", l.name, l.fail, workers, runtime.NumGoroutine(), before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}

func TestValidateSurfacesChecksumCorruption(t *testing.T) {
	// Flip a byte in a node page behind the tree's back: Validate must
	// report the checksum failure instead of trusting the page.
	inner := storage.NewMemPager(4096)
	pool := buffer.NewPool(inner, 64)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(randRects(100, 63), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a leaf page (any page that is not meta and not root).
	var victim storage.PageID = 1
	if victim == tr.Root() {
		victim = 2
	}
	buf := make([]byte, 4096)
	if err := inner.ReadPage(victim, buf); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xFF
	if err := inner.WritePage(victim, buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(CheckConfig{}); err == nil {
		t.Fatal("validation accepted a corrupted page")
	} else if !errors.Is(err, node.ErrBadChecksum) {
		t.Fatalf("expected checksum error, got: %v", err)
	}
}
