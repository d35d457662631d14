package buffer

import (
	"math/rand"
	"sync"
	"testing"

	"strtree/internal/storage"
)

// newShardedN returns a sharded pool over a fresh MemPager with n
// pre-allocated pages, page i filled with byte(i).
func newShardedN(t *testing.T, capacity, shards, n int) (*Sharded, *storage.MemPager) {
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
	s, err := NewSharded(pg, capacity, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s, pg
}

// randTrace returns ops page ids over [0, pages) with Zipf-ish skew, the
// same shape the Pool reference-model test uses.
func randTrace(pages, ops int, seed int64) []storage.PageID {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]storage.PageID, ops)
	for i := range trace {
		id := storage.PageID(rng.Intn(pages))
		if rng.Intn(2) == 0 {
			id = storage.PageID(rng.Intn(pages/4 + 1))
		}
		trace[i] = id
	}
	return trace
}

func replay(t *testing.T, m Manager, trace []storage.PageID) {
	t.Helper()
	for _, id := range trace {
		f, err := m.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		m.Release(f)
	}
}

// TestShardedValidation pins the constructor contract: power-of-two shard
// counts only, and at least one page per shard.
func TestShardedValidation(t *testing.T) {
	pg := storage.NewMemPager(64)
	for _, bad := range []struct{ capacity, shards int }{
		{8, 0}, {8, 3}, {8, 6}, {8, -4}, {4, 8},
	} {
		if _, err := NewSharded(pg, bad.capacity, bad.shards); err == nil {
			t.Errorf("NewSharded(capacity=%d, shards=%d) accepted", bad.capacity, bad.shards)
		}
	}
	for _, ok := range []int{1, 2, 4, 64} {
		s, err := NewSharded(pg, 64, ok)
		if err != nil {
			t.Fatalf("NewSharded(64, %d): %v", ok, err)
		}
		if s.NumShards() != ok || s.Capacity() != 64 {
			t.Fatalf("shards=%d capacity=%d, want %d/64", s.NumShards(), s.Capacity(), ok)
		}
	}
}

// TestSingleShardMatchesPool is the determinism gate for paper-reproduction
// runs: with one shard, every counter matches the plain deterministic Pool
// on the same trace, byte for byte.
func TestSingleShardMatchesPool(t *testing.T) {
	const pages, capacity, ops = 40, 7, 5000
	s, _ := newShardedN(t, capacity, 1, pages)
	p, _ := newPoolN(t, capacity, pages)
	trace := randTrace(pages, ops, 123)
	replay(t, s, trace)
	replay(t, p, trace)
	if got, want := s.Stats(), p.Stats(); got != want {
		t.Fatalf("single-shard stats %+v, pool stats %+v", got, want)
	}
}

// TestShardedSequentialDeterminism replays one trace through two
// identically configured multi-shard pools and demands identical counters:
// replacement stays a pure function of the access sequence.
func TestShardedSequentialDeterminism(t *testing.T) {
	const pages, capacity, shards, ops = 64, 16, 4, 8000
	a, _ := newShardedN(t, capacity, shards, pages)
	b, _ := newShardedN(t, capacity, shards, pages)
	trace := randTrace(pages, ops, 99)
	replay(t, a, trace)
	replay(t, b, trace)
	if a.Stats() != b.Stats() {
		t.Fatalf("same trace, different stats: %+v vs %+v", a.Stats(), b.Stats())
	}
	as, bs := a.ShardStats(), b.ShardStats()
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("shard %d diverged: %+v vs %+v", i, as[i], bs[i])
		}
	}
}

// TestShardedSpreadsPages proves the page-number hash actually distributes
// the tree's densely allocated page ids: with plenty of pages every shard
// must see traffic.
func TestShardedSpreadsPages(t *testing.T) {
	const pages, capacity, shards = 256, 64, 8
	s, _ := newShardedN(t, capacity, shards, pages)
	for id := 0; id < pages; id++ {
		f, err := s.Fetch(storage.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		s.Release(f)
	}
	for i, st := range s.ShardStats() {
		if st.LogicalReads == 0 {
			t.Errorf("shard %d received no pages out of %d", i, pages)
		}
	}
}

// TestShardedConcurrentEviction hammers a small sharded buffer from many
// goroutines with mixed clean/dirty fetch traffic that constantly evicts,
// then checks the aggregated accounting against a sequential single-shard
// replay of the same trace: hit+miss totals (LogicalReads) must match
// exactly, and the cached-frames identity misses - evictions == Len() must
// hold on the concurrent run. Run under -race this is also the memory-safety
// gate for the sharded fast path.
func TestShardedConcurrentEviction(t *testing.T) {
	// Every worker pins at most one frame at a time, and all of them could
	// momentarily pin pages of the same shard, so each shard's capacity
	// (total/shards) must be at least the worker count or the hammer could
	// legitimately hit ErrPoolExhausted.
	const (
		pages    = 48
		capacity = 32
		shards   = 4
		workers  = 8
		opsEach  = 3000
	)
	s, _ := newShardedN(t, capacity, shards, pages)

	traces := make([][]storage.PageID, workers)
	for w := range traces {
		traces[w] = randTrace(pages, opsEach, int64(1000+w))
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(trace []storage.PageID, w int) {
			defer wg.Done()
			for _, id := range trace {
				f, err := s.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				// A reader must never observe a page being evicted under
				// it: while pinned, the frame holds exactly its page's
				// bytes (page i is filled with byte(i)).
				if f.Data()[0] != byte(id) || f.Data()[63] != byte(id) {
					s.Release(f)
					errs <- errTornRead
					return
				}
				// Read pins are shared, so writing under one is only safe
				// for a page's single writer: each page is dirtied by one
				// worker, always the same. (Any worker dirtying any page
				// was a data race on the byte and on the dirty flag — rare
				// until MarkDirty grew an atomic store and widened the
				// window.)
				if int(id)%(2*workers) == w {
					f.Data()[1] = f.Data()[0]
					f.MarkDirty()
				}
				s.Release(f)
			}
		}(traces[w], w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got := s.Stats()
	hits := got.LogicalReads - got.DiskReads
	if hits < 0 {
		t.Fatalf("negative hits: %+v", got)
	}
	if int64(s.Len()) != got.DiskReads-got.Evictions {
		t.Fatalf("cached frames %d != misses %d - evictions %d", s.Len(), got.DiskReads, got.Evictions)
	}

	// Sequential single-shard replay of the same trace: the aggregated
	// hit+miss total is trace-length-determined and must match exactly.
	seq, _ := newShardedN(t, capacity, 1, pages)
	for _, trace := range traces {
		replay(t, seq, trace)
	}
	want := seq.Stats()
	if got.LogicalReads != want.LogicalReads {
		t.Fatalf("concurrent hit+miss total %d != sequential replay total %d", got.LogicalReads, want.LogicalReads)
	}
	if wantHits := want.LogicalReads - want.DiskReads; wantHits < 0 {
		t.Fatalf("sequential replay negative hits: %+v", want)
	}
	// Both runs fetched every page at least once through a 32-of-48-page
	// buffer, so each saw at least one miss per distinct page touched.
	if got.DiskReads < int64(capacity) || want.DiskReads < int64(capacity) {
		t.Fatalf("implausibly few misses: concurrent %d, sequential %d", got.DiskReads, want.DiskReads)
	}
}

// errTornRead reports a pinned frame whose bytes did not match its page.
var errTornRead = &tornReadError{}

type tornReadError struct{}

func (*tornReadError) Error() string {
	return "buffer: pinned frame observed bytes from another page"
}

// TestShardedCreateFlush allocates pages through the sharded manager,
// writes through them, and checks FlushAll lands the bytes in the pager.
func TestShardedCreateFlush(t *testing.T) {
	s, pg := newShardedN(t, 16, 4, 0)
	var ids []storage.PageID
	for i := 0; i < 8; i++ {
		f, err := s.Create()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = 0xA0 | byte(i)
		ids = append(ids, f.ID())
		s.Release(f)
	}
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i, id := range ids {
		if err := pg.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0xA0|byte(i) {
			t.Fatalf("page %d lost its created contents", id)
		}
	}
	if err := s.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len after invalidate = %d", s.Len())
	}
}
