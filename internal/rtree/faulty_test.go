package rtree

import (
	"errors"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
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
	entries, err := tr.Entries()
	if err != nil {
		t.Fatal(err)
	}
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
	_, err = tr.Delete(entries[0].Rect, entries[0].Ref)
	if !errors.Is(err, errInjected) {
		t.Fatalf("delete did not surface the read error: %v", err)
	}
}

func TestBulkLoadSurfacesWriteError(t *testing.T) {
	fp := storage.NewFaultyPager(storage.NewMemPager(4096))
	// A 2-page pool forces page writes during the build.
	pool := buffer.NewPool(fp, 2)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	fp.FailWrites(func(storage.PageID) error { return errInjected })
	err = tr.BulkLoad(randRects(500, 62), xSortOrderer{})
	if !errors.Is(err, errInjected) {
		t.Fatalf("bulk load did not surface the write error: %v", err)
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
