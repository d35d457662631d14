package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/storage"
)

// randTrace builds a skewed access sequence over the given page universe.
func randTrace(n, pages int, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(Trace, n)
	for i := range t {
		if rng.Intn(2) == 0 {
			t[i] = storage.PageID(rng.Intn(pages / 4)) // hot set
		} else {
			t[i] = storage.PageID(rng.Intn(pages))
		}
	}
	return t
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := randTrace(1000, 50, 1)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("loaded %d of %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := Load(bytes.NewReader(make([]byte, 12))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	if err := (Trace{1, 2, 3}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, err := Load(bytes.NewReader(short)); err == nil {
		t.Error("truncated stream accepted")
	}
}

// TestSimulateLRUMatchesRealPool is the load-bearing cross-check: the
// simulator and the actual buffer pool must report identical miss counts
// for the same trace and capacity.
func TestSimulateLRUMatchesRealPool(t *testing.T) {
	const pages = 60
	tr := randTrace(5000, pages, 2)
	for _, capacity := range []int{1, 3, 8, 20, 60} {
		pg := storage.NewMemPager(64)
		for i := 0; i < pages; i++ {
			if _, err := pg.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		pool := buffer.NewPool(pg, capacity)
		for _, id := range tr {
			f, err := pool.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			pool.Release(f)
		}
		real := int(pool.Stats().DiskReads)
		sim := tr.SimulateLRU(capacity)
		if real != sim {
			t.Fatalf("capacity %d: pool %d misses, simulator %d", capacity, real, sim)
		}
	}
}

// TestSimulateClockMatchesRealPool holds SimulateClock to the live Clock pool
// it was verified against miss for miss until PR 26 removed that pool
// (buffer.NewPoolWithPolicy(pg, capacity, buffer.Clock)): the counts below are
// that pool's DiskReads over this trace, recorded at the last commit that had
// it. The simulator is the one Clock left; extpolicy, extwarmup and strtrace
// rely on it.
func TestSimulateClockMatchesRealPool(t *testing.T) {
	tr := randTrace(5000, 60, 3)
	for _, tc := range []struct{ capacity, misses int }{
		{1, 4851}, {3, 4554}, {8, 3926}, {20, 2563},
	} {
		if sim := tr.SimulateClock(tc.capacity); sim != tc.misses {
			t.Errorf("capacity %d: simulator %d misses, the live Clock pool had %d", tc.capacity, sim, tc.misses)
		}
	}
}

func TestOPTIsOptimalOrdering(t *testing.T) {
	tr := randTrace(4000, 40, 4)
	for _, capacity := range []int{2, 5, 10, 20} {
		opt := tr.SimulateOPT(capacity)
		lru := tr.SimulateLRU(capacity)
		clock := tr.SimulateClock(capacity)
		if opt > lru || opt > clock {
			t.Fatalf("capacity %d: OPT %d exceeds LRU %d or Clock %d", capacity, opt, lru, clock)
		}
		// Compulsory misses are a floor for every policy.
		if d := tr.Distinct(); opt < d {
			t.Fatalf("capacity %d: OPT %d below compulsory %d", capacity, opt, d)
		}
	}
}

func TestOPTHandCheck(t *testing.T) {
	// Classic example: trace a b c a b c with capacity 2.
	// OPT: miss a, miss b, miss c (evict b, since a is next), hit a,
	// miss b (evict a or c; both next-never after their use... b's eviction
	// chain), hit/miss c. Hand-verified optimal is 5 misses? Work it out:
	// accesses: a b c a b c, cap 2.
	// a: miss {a}
	// b: miss {a b}
	// c: miss; next use: a at 3, b at 4 -> evict b (farther) {a c}
	// a: hit {a c}
	// b: miss; next: a never(after 3? a has no later use), c at 5 -> evict a {b c}...
	// a's next use after position 4 is none (last a was at 3); c's next is 5.
	// farthest-future = a (never) -> evict a -> {c b}
	// c: hit.
	// total 4 misses.
	tr := Trace{1, 2, 3, 1, 2, 3}
	if got := tr.SimulateOPT(2); got != 4 {
		t.Fatalf("OPT misses = %d, want 4", got)
	}
	// LRU thrashes: every access misses.
	if got := tr.SimulateLRU(2); got != 6 {
		t.Fatalf("LRU misses = %d, want 6", got)
	}
}

func TestSimulatorsDegenerateCapacity(t *testing.T) {
	tr := randTrace(100, 10, 5)
	if tr.SimulateLRU(0) != len(tr) || tr.SimulateClock(0) != len(tr) || tr.SimulateOPT(0) != len(tr) {
		t.Fatal("capacity 0 should miss on every access")
	}
	// Infinite-like capacity: only compulsory misses.
	d := tr.Distinct()
	if tr.SimulateLRU(1000) != d || tr.SimulateClock(1000) != d || tr.SimulateOPT(1000) != d {
		t.Fatal("oversized buffer should miss only on first access")
	}
}

func TestRecorder(t *testing.T) {
	var rec Recorder
	pg := storage.NewMemPager(64)
	for i := 0; i < 8; i++ {
		if _, err := pg.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	pool := buffer.NewPool(pg, 4)
	pool.SetTracer(rec.Observe)
	seq := []storage.PageID{0, 1, 2, 1, 0, 5}
	for _, id := range seq {
		f, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pool.Release(f)
	}
	got := rec.Trace()
	if len(got) != len(seq) {
		t.Fatalf("recorded %d accesses", len(got))
	}
	for i := range seq {
		if got[i] != seq[i] {
			t.Fatalf("access %d: %d, want %d", i, got[i], seq[i])
		}
	}
	rec.Reset()
	if len(rec.Trace()) != 0 {
		t.Fatal("reset did not clear")
	}
	// Detach: no more recording.
	pool.SetTracer(nil)
	f, err := pool.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(f)
	if len(rec.Trace()) != 0 {
		t.Fatal("tracer not detached")
	}
}

func BenchmarkSimulateOPT(b *testing.B) {
	tr := randTrace(100000, 500, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SimulateOPT(50)
	}
}
