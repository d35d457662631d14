package buffer

import (
	"errors"
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
