package histo

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketMapping pins the log-linear scheme: unit buckets below
// subCount, then subCount sub-buckets per octave, contiguous and
// monotone, with every value inside its bucket's bounds.
func TestBucketMapping(t *testing.T) {
	for v := int64(0); v < subCount; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want unit bucket %d", v, got, v)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 31, 32, 100, 1000, 1 << 20, 1<<40 + 12345, 1<<62 + 99} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if up := bucketUpper(idx); v > up {
			t.Errorf("value %d above its bucket %d upper bound %d", v, idx, up)
		}
		if idx > 0 {
			if lo := bucketUpper(idx - 1); v <= lo {
				t.Errorf("value %d not above previous bucket's upper bound %d", v, lo)
			}
		}
	}
}

// TestBucketUpperRoundTrip checks bucketUpper is the exact inverse
// boundary: the upper bound maps back into its own bucket, and one more
// maps into the next.
func TestBucketUpperRoundTrip(t *testing.T) {
	for idx := 0; idx < numBuckets; idx++ {
		up := bucketUpper(idx)
		if up < 0 {
			// Top octave overflows int64; the scheme never reaches it
			// from a real duration.
			continue
		}
		if got := bucketIndex(up); got != idx {
			t.Fatalf("bucketIndex(bucketUpper(%d)) = %d", idx, got)
		}
		if up+1 > 0 {
			if got := bucketIndex(up + 1); got != idx+1 {
				t.Fatalf("bucketIndex(%d) = %d, want %d", up+1, got, idx+1)
			}
		}
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	// Quantiles of an empty histogram are the documented NoData sentinel,
	// not zero: a zero would be indistinguishable from real 0ns samples.
	if q := h.Quantile(0.5); q != NoData {
		t.Fatalf("empty Quantile(0.5) = %v, want NoData", q)
	}
	for i, q := range h.Quantiles(0, 0.5, 0.99, 1) {
		if q != NoData {
			t.Fatalf("empty Quantiles[%d] = %v, want NoData", i, q)
		}
	}
	if NoData >= 0 {
		t.Fatal("NoData must be negative so no real observation can produce it")
	}
	s := h.Summarize()
	if s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	// One zero-duration observation must be distinguishable from empty.
	h.Observe(0)
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("Quantile(0.5) after Observe(0) = %v, want 0", q)
	}
}

// TestQuantileConcurrentWriters hammers one histogram from many writers
// while readers take quantile snapshots, under -race. Every snapshot must
// be internally consistent: either the NoData sentinel (nothing observed
// yet) or a value within the observed range.
func TestQuantileConcurrentWriters(t *testing.T) {
	var h Histogram
	const (
		writers = 4
		perG    = 5000
		maxVal  = int64(1 << 20)
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(rng.Int63n(maxVal)))
			}
		}(g)
	}
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			qs := h.Quantiles(0.5, 0.99)
			for i, q := range qs {
				if q == NoData {
					continue
				}
				// Quantile upper bounds never exceed one bucket above the
				// largest possible observation.
				if q < 0 || int64(q) > maxVal*2 {
					t.Errorf("mid-flight Quantiles[%d] = %v out of range", i, q)
					return
				}
			}
			if qs[0] != NoData && qs[1] != NoData && qs[0] > qs[1] {
				t.Errorf("p50 %v > p99 %v in one snapshot", qs[0], qs[1])
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	if got := h.Count(); got != writers*perG {
		t.Fatalf("count = %d, want %d", got, writers*perG)
	}
	if q := h.Quantile(1.0); q == NoData || q < 0 {
		t.Fatalf("final p100 = %v", q)
	}
}

// TestQuantileAccuracy compares against exact order statistics on a
// random workload: every reported quantile must be >= the true one and
// within the bucket scheme's 12.5% relative error (plus one unit).
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	n := 20000
	vals := make([]int64, n)
	for i := range vals {
		// Log-uniform spread from ~100ns to ~100ms.
		v := int64(100 * (1 << uint(rng.Intn(20))))
		v += rng.Int63n(v)
		vals[i] = v
		h.Observe(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		rank := int(q*float64(n) + 0.5)
		exact := vals[rank-1]
		got := int64(h.Quantile(q))
		if got < exact {
			t.Errorf("q=%v: got %d below exact %d", q, got, exact)
		}
		if limit := exact + exact/subCount + 1; got > limit {
			t.Errorf("q=%v: got %d above error bound %d (exact %d)", q, got, limit, exact)
		}
	}
	if h.Count() != int64(n) {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != time.Duration(vals[n-1]) {
		t.Fatalf("max = %v, want %v", h.Max(), time.Duration(vals[n-1]))
	}
}

// TestQuantilesSinglePass checks the multi-quantile path agrees with the
// one-shot path and respects ascending order.
func TestQuantilesSinglePass(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	qs := h.Quantiles(0.5, 0.95, 0.99)
	if !(qs[0] <= qs[1] && qs[1] <= qs[2]) {
		t.Fatalf("quantiles not ascending: %v", qs)
	}
	for i, q := range []float64{0.5, 0.95, 0.99} {
		if single := h.Quantile(q); single != qs[i] {
			t.Errorf("Quantile(%v) = %v, Quantiles gave %v", q, single, qs[i])
		}
	}
}

func TestMeanSum(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if h.Sum() != 40*time.Millisecond || h.Mean() != 20*time.Millisecond {
		t.Fatalf("sum %v mean %v", h.Sum(), h.Mean())
	}
}

func TestNegativeDurationCountsAsZero(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Count() != 1 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatalf("negative observation mishandled: count %d max %v", h.Count(), h.Max())
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines; run
// under -race by check.sh. Totals must be exact — observation is atomic.
func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Max() != time.Duration(workers*per-1) {
		t.Fatalf("max = %v", h.Max())
	}
	if h.Quantile(1.0) > h.Max() {
		t.Fatalf("p100 %v above max %v", h.Quantile(1.0), h.Max())
	}
}

func TestSummarize(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// All observations identical: every quantile lands in the same bucket.
	if s.P50 != s.P99 {
		t.Fatalf("p50 %d != p99 %d for constant input", s.P50, s.P99)
	}
	if s.Max != uint64(time.Millisecond) {
		t.Fatalf("max = %d", s.Max)
	}
}
