package query

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"strtree/internal/geom"
)

// matches lists the indices of the rectangles in items that q intersects,
// by linear scan — the oracle a batch is checked against. It is trivially
// safe for concurrent use.
func matches(items []geom.Rect, q geom.Rect) []int {
	var out []int
	for j, r := range items {
		if q.Intersects(r) {
			out = append(out, j)
		}
	}
	return out
}

// grid returns n*n unit cells tiling [0,n)x[0,n).
func grid(n int) []geom.Rect {
	out := make([]geom.Rect, 0, n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			out = append(out, geom.R2(float64(x), float64(y), float64(x)+1, float64(y)+1))
		}
	}
	return out
}

// run is Run on a fresh ExecMetrics.
func run(qs []geom.Rect, workers int, do func(i int, q geom.Rect) error) error {
	return Run(qs, workers, &ExecMetrics{}, func(_, i int, q geom.Rect) error { return do(i, q) })
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
	for _, workers := range []int{0, 1, 3, 8} {
		got := make([][]int, len(qs))
		if err := run(qs, workers, func(i int, q geom.Rect) error {
			got[i] = matches(items, q)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, q := range qs {
			if want := matches(items, q); fmt.Sprint(got[i]) != fmt.Sprint(want) {
				t.Fatalf("workers=%d query %d: got %v, want %v", workers, i, got[i], want)
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
	got := make([]int, len(qs))
	if err := run(qs, 4, func(i int, q geom.Rect) error {
		got[i] = len(matches(items, q))
		return nil
	}); err != nil {
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
	var m ExecMetrics
	if err := Run(nil, 4, &m, func(int, int, geom.Rect) error {
		t.Fatal("query run for an empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m.BatchesStarted.Load() != 0 {
		t.Fatal("an empty batch was counted")
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
		if err := run(qs, workers, func(int, geom.Rect) error {
			if calls.Add(1) == 37 {
				return sentinel
			}
			return nil
		}); !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: Run err = %v, want sentinel", workers, err)
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
		err := run(qs, workers, func(_ int, q geom.Rect) error {
			if q.Equal(qs[7]) {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", workers, err)
		}
		if !strings.Contains(err.Error(), "query 7:") {
			t.Fatalf("workers=%d: err %q does not name query 7", workers, err)
		}
	}
}

// TestBatchErrorStopsBatch checks the pool abandons remaining queries
// after a failure rather than grinding through the whole batch.
func TestBatchErrorStopsBatch(t *testing.T) {
	const total = 10000
	var calls atomic.Int64
	err := run(Points(total, 13), 4, func(int, geom.Rect) error {
		n := calls.Add(1)
		if n == 5 {
			return fmt.Errorf("boom")
		}
		if n > 5 {
			// 10 000 empty calls are 0.2 ms of work: less than a loaded
			// box may keep the failing worker's thread off the CPU
			// between its error and the stop flag. Calls after the
			// error take long enough for that not to decide the test.
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	})
	if err == nil {
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
	counts := make([]int, len(qs))
	if err := run(qs, 8, func(i int, q geom.Rect) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		counts[i] = len(matches(items, q))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 8 {
		t.Fatalf("worker pool exceeded its size: peak %d", peak.Load())
	}
}
