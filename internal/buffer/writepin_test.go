package buffer

import (
	"errors"
	"testing"

	"strtree/internal/storage"
)

// newWritePinPool sets up a pool over a mem pager with n pre-allocated pages.
func newWritePinPool(t *testing.T, capacity, shards, pages int) (*Pool, []storage.PageID) {
	t.Helper()
	pager := storage.NewMemPager(128)
	p, err := NewSharded(pager, capacity, shards)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]storage.PageID, pages)
	for i := range ids {
		f, err := p.Create()
		if err != nil {
			t.Fatalf("create page %d: %v", i, err)
		}
		ids[i] = f.id
		p.Release(f)
	}
	if err := p.Invalidate(); err != nil {
		t.Fatalf("invalidate: %v", err)
	}
	return p, ids
}

// TestWritePinExclusivity pins the write-pin protocol on one shard and,
// routed by page hash, on four.
func TestWritePinExclusivity(t *testing.T) {
	for _, sc := range shardCases {
		t.Run(sc.name, func(t *testing.T) { testWritePinExclusivity(t, sc.shards) })
	}
}

func testWritePinExclusivity(t *testing.T, shards int) {
	p, ids := newWritePinPool(t, 4*shards, shards, 2)

	// A write pin on a read-pinned page must fail.
	rf, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FetchMut(ids[0]); !errors.Is(err, ErrReadPinned) {
		t.Fatalf("FetchMut on read-pinned page: got %v, want ErrReadPinned", err)
	}
	p.Release(rf)

	// With the read pin gone the write pin succeeds, and while it is held
	// both Fetch and a second FetchMut must fail.
	wf, err := p.FetchMut(ids[0])
	if err != nil {
		t.Fatalf("FetchMut after release: %v", err)
	}
	if _, err := p.Fetch(ids[0]); !errors.Is(err, ErrWritePinned) {
		t.Fatalf("Fetch on write-pinned page: got %v, want ErrWritePinned", err)
	}
	if _, err := p.FetchMut(ids[0]); !errors.Is(err, ErrWritePinned) {
		t.Fatalf("second FetchMut: got %v, want ErrWritePinned", err)
	}
	// Other pages stay fetchable.
	of, err := p.Fetch(ids[1])
	if err != nil {
		t.Fatalf("Fetch of unrelated page during write pin: %v", err)
	}
	p.Release(of)

	wf.Data()[0] = 0xAB
	if err := p.ReleaseMut(wf); err != nil {
		t.Fatalf("ReleaseMut: %v", err)
	}
	rf, err = p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if rf.Data()[0] != 0xAB {
		t.Fatalf("patched byte lost across the write pin: %#x", rf.Data()[0])
	}
	p.Release(rf)

	// The write-released frame is dirty: flushing persists the patch.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := p.Pager().ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatalf("patched byte not flushed: got %#x", buf[0])
	}
}

func TestReleaseMutProtocolErrors(t *testing.T) {
	p, ids := newWritePinPool(t, 4, 1, 1)

	// ReleaseMut of a read pin is a pairing bug.
	rf, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseMut(rf); !errors.Is(err, ErrNotWritePinned) {
		t.Fatalf("ReleaseMut of read pin: got %v, want ErrNotWritePinned", err)
	}
	p.Release(rf)

	// Double ReleaseMut: the second call must fail, not underflow pins.
	wf, err := p.FetchMut(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseMut(wf); err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseMut(wf); !errors.Is(err, ErrNotWritePinned) {
		t.Fatalf("double ReleaseMut: got %v, want ErrNotWritePinned", err)
	}
}

func TestReleaseOfWritePinPanics(t *testing.T) {
	p, ids := newWritePinPool(t, 4, 1, 1)
	wf, err := p.FetchMut(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release of a write-pinned frame did not panic")
			}
		}()
		p.Release(wf)
	}()
	if err := p.ReleaseMut(wf); err != nil {
		t.Fatalf("ReleaseMut after recovered panic: %v", err)
	}
}

// TestWritePinMiss covers the FetchMut miss path: the page is read from the
// pager, write-pinned immediately, and the pin blocks eviction. The two
// pages share a one-frame shard.
func TestWritePinMiss(t *testing.T) {
	for _, sc := range shardCases {
		t.Run(sc.name, func(t *testing.T) {
			p, _ := newWritePinPool(t, sc.shards, sc.shards, 16)
			ids := sameShard(p, 2)
			wf, err := p.FetchMut(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			// The shard's only frame write-pinned: another fetch cannot
			// evict it.
			if _, err := p.Fetch(ids[1]); !errors.Is(err, ErrPoolExhausted) {
				t.Fatalf("Fetch with the sole frame write-pinned: got %v, want ErrPoolExhausted", err)
			}
			if err := p.ReleaseMut(wf); err != nil {
				t.Fatal(err)
			}
			f, err := p.Fetch(ids[1])
			if err != nil {
				t.Fatalf("Fetch after ReleaseMut: %v", err)
			}
			p.Release(f)
			s := p.Stats()
			if s.DiskReads != 2 {
				t.Fatalf("DiskReads = %d, want 2 (one per miss)", s.DiskReads)
			}
		})
	}
}
