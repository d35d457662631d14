package buffer

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"strtree/internal/storage"
)

// newPoolN returns a single-shard pool of the given capacity over a fresh
// MemPager with n pre-allocated pages, page i filled with byte(i).
func newPoolN(t *testing.T, capacity, n int) (*Pool, *storage.MemPager) {
	t.Helper()
	return newShardedN(t, capacity, 1, n)
}

func TestFetchHitAndMiss(t *testing.T) {
	p, _ := newPoolN(t, 4, 8)
	f, err := p.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != 3 || f.Data()[0] != 3 {
		t.Fatalf("frame id=%d data[0]=%d", f.id, f.Data()[0])
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

// TestCreate allocates pages through the pool, writes through them, and
// checks FlushAll lands the bytes in the pager without a disk read.
func TestCreate(t *testing.T) {
	for _, sc := range shardCases {
		t.Run(sc.name, func(t *testing.T) {
			p, pg := newShardedN(t, 16, sc.shards, 0)
			for i := 0; i < 8; i++ {
				f, err := p.Create()
				if err != nil {
					t.Fatal(err)
				}
				if f.id != storage.PageID(i) {
					t.Fatalf("created page id = %d, want %d", f.id, i)
				}
				f.Data()[0] = 0xA0 | byte(i)
				p.Release(f)
			}
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			for i := 0; i < 8; i++ {
				if err := pg.ReadPage(storage.PageID(i), buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != 0xA0|byte(i) {
					t.Fatalf("page %d lost its created contents", i)
				}
			}
			// Create performs no disk read.
			if s := p.Stats(); s.DiskReads != 0 {
				t.Fatalf("Create incurred %d disk reads", s.DiskReads)
			}
			if err := p.Invalidate(); err != nil {
				t.Fatal(err)
			}
			if p.Len() != 0 {
				t.Fatalf("Len after invalidate = %d", p.Len())
			}
		})
	}
}

// TestAdopt: a page allocated on one side is adopted — zeroed, dirty, one
// pin, no read — on another; the eviction it causes, and that victim's
// write-back, happen inside Adopt; and a page the pool already holds is
// refused rather than mapped twice. On one shard and through the shard
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
		if f.id != first || !f.dirty || f.pins != 1 || f.Checked() {
			t.Fatalf("%s: adopted frame: id %d dirty %v pins %d checked %v", name, f.id, f.dirty, f.pins, f.Checked())
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
	if len(p.shards) != 1 || p.shards[0].capacity != 7 {
		t.Fatalf("%d shards, the first of capacity %d", len(p.shards), p.shards[0].capacity)
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

// TestWritePages is the run write past the cache: the pager gets the run as
// one call and every page of it lands; a cached frame of a page in the run
// — a recycled page left dirty by the dynamic write path — is dropped
// unwritten, so no later flush puts its stale image back; a pinned one
// fails the run before anything is written; a ragged length is refused;
// and each page counts one DiskWrite on its own shard.
func TestWritePages(t *testing.T) {
	for _, sc := range shardCases {
		t.Run(sc.name, func(t *testing.T) {
			p, pg := newShardedN(t, 8, sc.shards, 12)
			stale, err := p.Fetch(5) // a recycled page, cached and dirty
			if err != nil {
				t.Fatal(err)
			}
			stale.MarkDirty()
			p.Release(stale)
			pinned, err := p.Fetch(9)
			if err != nil {
				t.Fatal(err)
			}
			run := bytes.Repeat([]byte{0xEE}, 6*64)
			before := pg.Stats()
			if err := p.WritePages(6, run); err == nil { // pages 6..11 take in pinned page 9
				t.Fatal("a run over a pinned page was written")
			}
			if err := p.WritePages(2, run[:3*64+1]); err == nil {
				t.Fatal("a run of three pages and a byte was written")
			}
			if got := pg.Stats(); got.Writes != before.Writes || p.Len() != 2 {
				t.Fatalf("refused runs wrote %d pages, pool holds %d frames (want 0 and 2)", got.Writes-before.Writes, p.Len())
			}
			p.Release(pinned)
			if err := p.WritePages(3, run[:4*64]); err != nil { // pages 3..6, 5 cached and dirty
				t.Fatal(err)
			}
			if got := pg.Stats().Writes - before.Writes; got != 4 {
				t.Fatalf("the run wrote %d pages, want 4", got)
			}
			if p.Len() != 1 {
				t.Fatalf("pool holds %d frames after the run, want page 9's alone: page 5's stale frame stays", p.Len())
			}
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			for id := storage.PageID(2); id <= 7; id++ {
				if err := pg.ReadPage(id, buf); err != nil {
					t.Fatal(err)
				}
				want := byte(id)
				if id >= 3 && id <= 6 {
					want = 0xEE
				}
				if buf[0] != want {
					t.Fatalf("page %d starts %#x after the run and a flush, want %#x", id, buf[0], want)
				}
			}
			want := make([]int64, sc.shards)
			for id := storage.PageID(3); id <= 6; id++ {
				for i, s := range p.shards {
					if s == p.shard(id) {
						want[i]++
					}
				}
			}
			for i, st := range p.ShardStats() {
				if st.DiskWrites != want[i] {
					t.Fatalf("shard %d counted %d writes, its pages in the run are %d", i, st.DiskWrites, want[i])
				}
			}
		})
	}
}

// TestWritePagesRefusedKeepsFrames: a run refused for a pinned page drops
// no frame, so a dirty page cached ahead of the pinned one in the run keeps
// its bytes; dropping it would lose them, since the run is never written.
func TestWritePagesRefusedKeepsFrames(t *testing.T) {
	for _, sc := range shardCases {
		t.Run(sc.name, func(t *testing.T) {
			p, pg := newShardedN(t, 8, sc.shards, 12)
			f := mustFetch(t, p, 6)
			f.Data()[0] = 0x66
			f.MarkDirty()
			p.Release(f)
			pinned := mustFetch(t, p, 9)
			before := pg.Stats().Writes
			if err := p.WritePages(6, bytes.Repeat([]byte{0xEE}, 6*64)); err == nil {
				t.Fatal("a run over pinned page 9 was written")
			}
			p.Release(pinned)
			if got := pg.Stats().Writes - before; got != 0 || p.Len() != 2 {
				t.Fatalf("the refused run wrote %d pages and left %d frames, want 0 and 2", got, p.Len())
			}
			f = mustFetch(t, p, 6)
			defer p.Release(f)
			if f.Data()[0] != 0x66 {
				t.Fatalf("page 6 starts %#x after the refused run, want its dirty 0x66", f.Data()[0])
			}
		})
	}
}

// TestInvalidateRefusedChangesNothing: an Invalidate refused for a pinned
// page writes back and drops nothing, on any shard, whichever page the
// pin is on. The pin sits on the page a shard-by-shard, page-ordered walk
// reaches last.
func TestInvalidateRefusedChangesNothing(t *testing.T) {
	for _, sc := range shardCases {
		t.Run(sc.name, func(t *testing.T) {
			const pages = 8
			p, pg := newShardedN(t, 32, sc.shards, pages)
			shardOf := func(id storage.PageID) int { return slices.Index(p.shards, p.shard(id)) }
			var last storage.PageID
			for id := storage.PageID(0); id < pages; id++ {
				f := mustFetch(t, p, id)
				f.Data()[0] = 0xD0 | byte(id)
				f.MarkDirty()
				p.Release(f)
				if shardOf(id) >= shardOf(last) {
					last = id
				}
			}
			pinned := mustFetch(t, p, last)
			defer p.Release(pinned)
			before := pg.Stats().Writes
			if err := p.Invalidate(); err == nil {
				t.Fatalf("Invalidate with page %d pinned succeeded", last)
			}
			if got := pg.Stats().Writes - before; got != 0 || p.Len() != pages || p.Stats().DiskWrites != 0 {
				t.Fatalf("the refused Invalidate wrote %d pages (%d counted) and left %d frames, want 0 and %d",
					got, p.Stats().DiskWrites, p.Len(), pages)
			}
		})
	}
}

// TestPoolSteadyStateZeroAlloc: once the pool has met every page, a hit, a
// clean miss that evicts and a dirty miss that evicts and writes back
// allocate nothing.
func TestPoolSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const pages, capacity = 64, 8
	p, _ := newPoolN(t, capacity, pages)
	touch := func(id storage.PageID, dirty bool) {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if dirty {
			f.MarkDirty()
		}
		p.Release(f)
	}
	for id := storage.PageID(0); id < pages; id++ {
		touch(id, false)
	}
	next := storage.PageID(0)
	cases := []struct {
		name            string
		step            func()
		misses, written int64
	}{
		{"hit", func() { touch(pages-1, false) }, 0, 0},
		{"clean miss", func() { touch(next%pages, false); next++ }, 1, 0},
		{"dirty miss", func() { touch(next%pages, true); next++ }, 1, 1},
	}
	const runs = 200
	for _, tc := range cases {
		before := p.Stats()
		if a := testing.AllocsPerRun(runs, tc.step); a != 0 {
			t.Errorf("%s: %v allocations per op, want 0", tc.name, a)
		}
		st := p.Stats()
		ops := int64(runs + 1) // AllocsPerRun runs the step once more to warm up
		if st.DiskReads-before.DiskReads != tc.misses*ops {
			t.Errorf("%s: %d misses in %d ops, want %d each", tc.name, st.DiskReads-before.DiskReads, ops, tc.misses)
		}
		// A dirty miss writes back the page dirtied capacity misses ago,
		// so the first capacity of them evict clean pages.
		if w := st.DiskWrites - before.DiskWrites; tc.written == 1 && w != ops-capacity || tc.written == 0 && w != 0 {
			t.Errorf("%s: %d write-backs in %d ops", tc.name, w, ops)
		}
	}
}

// BenchmarkFetchHitWide is a hit with query_hot's shape: a 16 384-frame
// pool holding 9 902 pages, fetched in a pseudo-random order, so the page
// table and the frames are spread over more memory than L1 holds.
func BenchmarkFetchHitWide(b *testing.B) {
	const frames, pages = 16384, 9902
	pg := storage.NewMemPager(64)
	for i := 0; i < pages; i++ {
		if _, err := pg.Alloc(); err != nil {
			b.Fatal(err)
		}
	}
	p := NewPool(pg, frames)
	ids := make([]storage.PageID, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = storage.PageID(rng.Intn(pages))
	}
	for id := storage.PageID(0); id < pages; id++ {
		f, err := p.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		p.Release(f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Fetch(ids[i&(len(ids)-1)])
		if err != nil {
			b.Fatal(err)
		}
		p.Release(f)
	}
}
