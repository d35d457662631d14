package buffer

import (
	"errors"
	"math/rand"
	"testing"

	"strtree/internal/storage"
)

// newPoolN returns a pool of the given capacity over a fresh MemPager with
// n pre-allocated pages, page i filled with byte(i).
func newPoolN(t *testing.T, capacity, n int) (*Pool, *storage.MemPager) {
	t.Helper()
	pg := storage.NewMemPager(64)
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		id, err := pg.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := pg.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return NewPool(pg, capacity), pg
}

func TestFetchHitAndMiss(t *testing.T) {
	p, _ := newPoolN(t, 4, 8)
	f, err := p.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != 3 || f.Data()[0] != 3 {
		t.Fatalf("frame id=%d data[0]=%d", f.ID(), f.Data()[0])
	}
	p.Release(f)
	// Second fetch is a hit.
	f2, err := p.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f2)
	s := p.Stats()
	if s.LogicalReads != 2 || s.DiskReads != 1 {
		t.Fatalf("stats = %+v, want 2 logical / 1 disk", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p, _ := newPoolN(t, 3, 10)
	touch := func(id storage.PageID) {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %d: %v", id, err)
		}
		p.Release(f)
	}
	touch(0)
	touch(1)
	touch(2) // pool: LRU 0,1,2 MRU
	touch(0) // pool: LRU 1,2,0 MRU
	touch(3) // evicts 1
	p.ResetStats()
	touch(2)
	touch(0)
	touch(3)
	if s := p.Stats(); s.DiskReads != 0 {
		t.Fatalf("pages 2,0,3 should all be resident, got %d disk reads", s.DiskReads)
	}
	touch(1)
	if s := p.Stats(); s.DiskReads != 1 {
		t.Fatalf("page 1 should have been evicted, stats %+v", p.Stats())
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	p, pg := newPoolN(t, 1, 3)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 0xEE
	f.MarkDirty()
	p.Release(f)
	// Fetching another page evicts page 0, which must be written back.
	f2, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f2)
	got := make([]byte, 64)
	if err := pg.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xEE {
		t.Fatal("dirty page lost on eviction")
	}
	if s := p.Stats(); s.DiskWrites != 1 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCleanEvictionDoesNotWrite(t *testing.T) {
	p, pg := newPoolN(t, 1, 3)
	before := pg.Stats().Writes
	for id := storage.PageID(0); id < 3; id++ {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f)
	}
	if pg.Stats().Writes != before {
		t.Fatal("clean evictions caused pager writes")
	}
}

func TestPinnedFramesNotEvicted(t *testing.T) {
	p, _ := newPoolN(t, 2, 5)
	f0, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	// Pool full, both pinned: next fetch must fail.
	if _, err := p.Fetch(2); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("fetch with all pinned: %v", err)
	}
	p.Release(f1)
	// Now page 1 is evictable.
	f2, err := p.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f2)
	p.Release(f0)
	// Page 0 stayed resident throughout.
	p.ResetStats()
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if p.Stats().DiskReads != 0 {
		t.Fatal("pinned page was evicted")
	}
}

func TestCreate(t *testing.T) {
	p, pg := newPoolN(t, 4, 0)
	f, err := p.Create()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != 0 {
		t.Fatalf("created page id = %d", f.ID())
	}
	copy(f.Data(), []byte("hello"))
	p.Release(f)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := pg.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "hello" {
		t.Fatal("created page contents lost")
	}
	// Create performs no disk read.
	if s := p.Stats(); s.DiskReads != 0 {
		t.Fatalf("Create incurred %d disk reads", s.DiskReads)
	}
}

// TestAdopt: a page allocated on one side is adopted — zeroed, dirty, one
// pin, no read — on another; the eviction it causes, and that victim's
// write-back, happen inside Adopt; and a page the pool already holds is
// refused rather than mapped twice. On a Pool and through a Sharded's
// routing alike.
func TestAdopt(t *testing.T) {
	pg := storage.NewMemPager(64)
	sharded, err := NewSharded(pg, 4, 4) // one frame per shard
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]Manager{"pool": NewPool(pg, 1), "sharded": sharded} {
		base := pg.Stats()
		first, _ := pg.Alloc()
		f, err := m.Adopt(first)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.ID() != first || !f.dirty || f.pins != 1 || f.Checked() {
			t.Fatalf("%s: adopted frame: id %d dirty %v pins %d checked %v", name, f.ID(), f.dirty, f.pins, f.Checked())
		}
		for _, b := range f.Data() {
			if b != 0 {
				t.Fatalf("%s: adopted frame is not zeroed", name)
			}
		}
		if _, err := m.Adopt(first); err == nil {
			t.Fatalf("%s: adopting a cached page succeeded", name)
		}
		f.Data()[0] = 0x5A
		m.Release(f)
		if got := pg.Stats(); got.Reads != base.Reads || got.Writes != base.Writes {
			t.Fatalf("%s: Adopt touched the pager: %+v, before %+v", name, got, base)
		}
		// Adopt pages until one lands where the first lives: that Adopt
		// evicts it and writes it back.
		for i := 0; pg.Stats().Writes == base.Writes; i++ {
			if i == 64 {
				t.Fatalf("%s: 64 adoptions and the first page was never evicted", name)
			}
			id, _ := pg.Alloc()
			f, err := m.Adopt(id)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m.Release(f)
		}
		back := make([]byte, 64)
		if err := pg.ReadPage(first, back); err != nil || back[0] != 0x5A {
			t.Fatalf("%s: evicted adopted page: %v, first byte %#x", name, err, back[0])
		}
		if err := m.Invalidate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInvalidate(t *testing.T) {
	p, _ := newPoolN(t, 4, 4)
	for id := storage.PageID(0); id < 4; id++ {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == 2 {
			f.MarkDirty()
		}
		p.Release(f)
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("Len after invalidate = %d", p.Len())
	}
	if s := p.Stats(); s.DiskWrites != 1 {
		t.Fatalf("dirty page not written on invalidate: %+v", s)
	}
	// Invalidate with a pinned page fails.
	f, _ := p.Fetch(0)
	if err := p.Invalidate(); err == nil {
		t.Fatal("invalidate with pinned page succeeded")
	}
	p.Release(f)
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	p, _ := newPoolN(t, 2, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Release(f)
}

func TestAccessors(t *testing.T) {
	pg := storage.NewMemPager(64)
	p := NewPool(pg, 7)
	if p.Capacity() != 7 {
		t.Fatalf("Capacity = %d", p.Capacity())
	}
	if p.Pager() != pg {
		t.Fatal("Pager accessor wrong")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(storage.NewMemPager(64), 0)
}

// TestLRUMatchesReferenceModel drives the pool and an independent
// reference LRU with the same random trace and checks the miss counts
// agree exactly. This is the invariant the whole evaluation rests on.
func TestLRUMatchesReferenceModel(t *testing.T) {
	const (
		pages    = 40
		capacity = 7
		ops      = 5000
	)
	p, _ := newPoolN(t, capacity, pages)
	rng := rand.New(rand.NewSource(123))

	// Reference: slice ordered MRU-first.
	var ref []storage.PageID
	refMisses := 0
	access := func(id storage.PageID) {
		for i, v := range ref {
			if v == id {
				ref = append(ref[:i], ref[i+1:]...)
				ref = append([]storage.PageID{id}, ref...)
				return
			}
		}
		refMisses++
		ref = append([]storage.PageID{id}, ref...)
		if len(ref) > capacity {
			ref = ref[:capacity]
		}
	}

	for i := 0; i < ops; i++ {
		// Zipf-ish skew: prefer low page numbers.
		id := storage.PageID(rng.Intn(pages))
		if rng.Intn(2) == 0 {
			id = storage.PageID(rng.Intn(pages / 4))
		}
		access(id)
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Release(f)
	}
	if got := p.Stats().DiskReads; got != int64(refMisses) {
		t.Fatalf("pool misses = %d, reference LRU misses = %d", got, refMisses)
	}
}

func BenchmarkFetchHit(b *testing.B) {
	pg := storage.NewMemPager(4096)
	id, _ := pg.Alloc()
	p := NewPool(pg, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		p.Release(f)
	}
}

func BenchmarkFetchMissEvict(b *testing.B) {
	pg := storage.NewMemPager(4096)
	for i := 0; i < 64; i++ {
		if _, err := pg.Alloc(); err != nil {
			b.Fatal(err)
		}
	}
	p := NewPool(pg, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Fetch(storage.PageID(i % 64))
		if err != nil {
			b.Fatal(err)
		}
		p.Release(f)
	}
}
