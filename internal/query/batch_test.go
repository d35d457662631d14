package query

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// bruteSearch returns a SearchFunc scanning items linearly — the oracle the
// executor is checked against. It is trivially safe for concurrent use.
func bruteSearch(items []node.Entry) SearchFunc {
	return func(q geom.Rect, emit func(node.Entry) bool) error {
		for _, it := range items {
			if q.Intersects(it.Rect) {
				if !emit(it) {
					return nil
				}
			}
		}
		return nil
	}
}

// countOf is the CountFunc that counts what search emits: the executor's
// tests drive RunCount through the same stand-in searches as Run.
func countOf(search SearchFunc) CountFunc {
	return func(q geom.Rect) (int, error) {
		n := 0
		err := search(q, func(node.Entry) bool { n++; return true })
		return n, err
	}
}

// grid returns n*n unit-cell entries tiling [0,n)x[0,n).
func grid(n int) []node.Entry {
	out := make([]node.Entry, 0, n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			out = append(out, node.Entry{
				Rect: geom.R2(float64(x), float64(y), float64(x)+1, float64(y)+1),
				Ref:  uint64(x*n + y),
			})
		}
	}
	return out
}

func TestBatchRunMatchesSequentialOracle(t *testing.T) {
	items := grid(16)
	qs := Regions(64, 0.3, 7)
	// Scale paper-space queries up to the grid's extent.
	for i := range qs {
		r, err := geom.NewRect(
			geom.Pt2(qs[i].Min[0]*16, qs[i].Min[1]*16),
			geom.Pt2(qs[i].Max[0]*16, qs[i].Max[1]*16),
		)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = r
	}
	want := make([][]node.Entry, len(qs))
	oracle := bruteSearch(items)
	for i, q := range qs {
		if err := oracle(q, func(e node.Entry) bool {
			want[i] = append(want[i], e)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, 1, 3, 8} {
		ex := BatchExecutor{Search: bruteSearch(items), Workers: workers}
		got, err := ex.Run(qs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d result sets, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d query %d: %d matches, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j].Ref != want[i][j].Ref || !got[i][j].Rect.Equal(want[i][j].Rect) {
					t.Fatalf("workers=%d query %d entry %d: got %v, want %v", workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestBatchRunCount(t *testing.T) {
	items := grid(8)
	qs := []geom.Rect{
		geom.R2(0, 0, 8, 8),     // everything
		geom.R2(0.5, 0.5, 1, 1), // one cell's interior plus 3 neighbors' edges
		geom.R2(-5, -5, -1, -1), // nothing
	}
	ex := BatchExecutor{Count: countOf(bruteSearch(items)), Workers: 4}
	got, err := ex.RunCount(qs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{64, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	ex := BatchExecutor{Search: bruteSearch(nil), Workers: 4}
	res, err := ex.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results = %v", res)
	}
}

// TestBatchErrorPropagates proves a worker's page-read error reaches the
// caller instead of being dropped, for every pool size, and that it is the
// search error itself.
func TestBatchErrorPropagates(t *testing.T) {
	sentinel := errors.New("page read failed")
	qs := Points(100, 11)
	for _, workers := range []int{1, 2, 8} {
		var calls atomic.Int64
		ex := BatchExecutor{
			Workers: workers,
			Search: func(q geom.Rect, emit func(node.Entry) bool) error {
				if calls.Add(1) == 37 {
					return sentinel
				}
				return nil
			},
		}
		if _, err := ex.Run(qs); !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: Run err = %v, want sentinel", workers, err)
		}
		calls.Store(0)
		ex.Count = countOf(ex.Search)
		if _, err := ex.RunCount(qs); !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: RunCount err = %v, want sentinel", workers, err)
		}
	}
}

// TestBatchErrorCarriesQueryIndex pins the first-error-wins wrapping: the
// returned error names the failing query's index ("query %d: ...") so
// server logs can identify the offending request, on both the sequential
// fast path and the worker-pool path.
func TestBatchErrorCarriesQueryIndex(t *testing.T) {
	sentinel := errors.New("page read failed")
	qs := Points(10, 19)
	for _, workers := range []int{1, 4} {
		ex := BatchExecutor{
			Workers: workers,
			Search: func(q geom.Rect, emit func(node.Entry) bool) error {
				if q.Equal(qs[7]) {
					return sentinel
				}
				return nil
			},
		}
		_, err := ex.Run(qs)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		if !strings.Contains(err.Error(), "query 7:") {
			t.Fatalf("workers=%d: err %q does not name query 7", workers, err)
		}
	}
}

// TestBatchObserve checks the latency hook fires exactly once per query
// with its index, on both execution paths.
func TestBatchObserve(t *testing.T) {
	items := grid(4)
	qs := Regions(50, 0.3, 23)
	for _, workers := range []int{1, 4} {
		var seen [50]atomic.Int64
		var total atomic.Int64
		ex := BatchExecutor{
			Workers: workers,
			Count:   countOf(bruteSearch(items)),
			Observe: func(i int, d time.Duration) {
				seen[i].Add(1)
				total.Add(1)
				if d < 0 {
					t.Errorf("negative latency for query %d", i)
				}
			},
		}
		if _, err := ex.RunCount(qs); err != nil {
			t.Fatal(err)
		}
		if total.Load() != int64(len(qs)) {
			t.Fatalf("workers=%d: %d observations for %d queries", workers, total.Load(), len(qs))
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: query %d observed %d times", workers, i, seen[i].Load())
			}
		}
	}
}

// TestBatchErrorStopsBatch checks the pool abandons remaining queries
// after a failure rather than grinding through the whole batch.
func TestBatchErrorStopsBatch(t *testing.T) {
	const total = 10000
	var calls atomic.Int64
	ex := BatchExecutor{
		Workers: 4,
		Count: func(geom.Rect) (int, error) {
			n := calls.Add(1)
			if n == 5 {
				return 0, fmt.Errorf("boom")
			}
			if n > 5 {
				// 10 000 empty calls are 0.2 ms of work: less than a loaded
				// box may keep the failing worker's thread off the CPU
				// between its error and the stop flag. Calls after the
				// error take long enough for that not to decide the test.
				time.Sleep(20 * time.Microsecond)
			}
			return 0, nil
		},
	}
	if _, err := ex.RunCount(Points(total, 13)); err == nil {
		t.Fatal("error lost")
	}
	if n := calls.Load(); n >= total {
		t.Fatalf("batch ran to completion (%d calls) despite early error", n)
	}
}

// TestBatchConcurrentStress drives many workers over a shared counter so
// the race detector can see the claim/write protocol.
func TestBatchConcurrentStress(t *testing.T) {
	items := grid(8)
	qs := Regions(500, 0.3, 17)
	var inFlight, peak atomic.Int64
	base := bruteSearch(items)
	ex := BatchExecutor{
		Workers: 8,
		Count: countOf(func(q geom.Rect, emit func(node.Entry) bool) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			defer inFlight.Add(-1)
			return base(q, emit)
		}),
	}
	counts, err := ex.RunCount(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != len(qs) {
		t.Fatalf("%d counts for %d queries", len(counts), len(qs))
	}
	if peak.Load() > 8 {
		t.Fatalf("worker pool exceeded its size: peak %d", peak.Load())
	}
}
