// Package histo provides a fixed-size, log-bucketed latency histogram
// safe for concurrent observation without locks. It is the serving
// layer's measurement substrate — internal/server's per-op request
// latencies, internal/router's merge times — and internal/obs exports it.
//
// Buckets follow the classic log-linear scheme: values below 2^subBits
// nanoseconds get exact unit buckets; above that, every power-of-two
// octave is split into 2^subBits equal sub-buckets, bounding the relative
// quantile error at 1/2^subBits (12.5% with subBits = 3). The whole range
// of an int64 nanosecond duration — up to ~292 years — fits in a few
// hundred counters, so a Histogram is a flat value type with no growth
// path and no allocation after creation.
package histo

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits sets the sub-buckets per octave: 2^subBits buckets of equal
	// width per power of two, i.e. at most 12.5% relative error.
	subBits = 3
	// subCount is the number of sub-buckets per octave.
	subCount = 1 << subBits
	// numBuckets covers every representable int64 nanosecond value:
	// subCount exact unit buckets plus subCount per remaining octave.
	numBuckets = (63 - subBits + 1) * subCount
)

// Histogram counts duration observations in log-spaced buckets. The zero
// value is ready to use. All methods are safe for concurrent use; Observe
// is wait-free (three atomic adds and a CAS loop only when a new maximum
// is set).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	e := bits.Len64(u) - 1 // floor(log2 u), >= subBits
	shift := e - subBits
	sub := int(u>>uint(shift)) - subCount // 0 .. subCount-1
	return (shift+1)*subCount + sub
}

// bucketUpper returns the largest value mapping to bucket idx, the bound
// Quantiles reports (quantiles are pessimistic, never underestimates).
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	shift := idx/subCount - 1
	sub := idx % subCount
	lower := uint64(subCount+sub) << uint(shift)
	return int64(lower + (1 << uint(shift)) - 1)
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observed duration (0 when empty).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// NoData is the sentinel Quantiles returns for every requested quantile
// of an empty histogram. A zero return would be indistinguishable from
// "all observations were zero", and the serving layer's dashboards must
// tell an idle op (no data) apart from a very fast one (real 0ns
// measurements). NoData is negative, which no real
// observation can produce (Observe clamps negatives to zero), so
// `q == NoData` — or simply `q < 0` — is a reliable emptiness test.
const NoData = time.Duration(-1)

// Quantiles returns an upper bound for each q-quantile (q in [0, 1]) of
// the observed durations, within one bucket width, all from one consistent
// snapshot of the buckets. qs must be ascending; results match qs
// positionally: Quantiles(0.5, 0.99) is the median and the p99. Every
// result is NoData when the histogram is empty.
func (h *Histogram) Quantiles(qs ...float64) []time.Duration {
	var snap [numBuckets]int64
	total := int64(0)
	for i := range snap {
		c := h.buckets[i].Load()
		snap[i] = c
		total += c
	}
	out := make([]time.Duration, len(qs))
	if total == 0 {
		for i := range out {
			out[i] = NoData
		}
		return out
	}
	maxSeen := h.max.Load()
	cum := int64(0)
	bucket := 0
	for qi, q := range qs {
		// rank is the 1-based index of the order statistic for q.
		rank := int64(q*float64(total) + 0.5)
		if rank < 1 {
			rank = 1
		}
		if rank > total {
			rank = total
		}
		for bucket < numBuckets && cum < rank {
			cum += snap[bucket]
			bucket++
		}
		upper := bucketUpper(bucket - 1)
		// The recorded exact max beats the last bucket's upper bound.
		if upper > maxSeen {
			upper = maxSeen
		}
		out[qi] = time.Duration(upper)
	}
	return out
}

// Summary is a fixed-size digest of a histogram, the form the serving
// layer's stats response carries over the wire. All fields are in
// nanoseconds except Count.
type Summary struct {
	Count                    uint64
	Mean, P50, P95, P99, Max uint64
}

// Summarize digests the histogram into counters and headline quantiles.
// An empty histogram yields the zero Summary (Count 0 disambiguates it);
// the NoData sentinel never leaks into the unsigned wire fields.
func (h *Histogram) Summarize() Summary {
	if h.Count() == 0 {
		return Summary{}
	}
	qs := h.Quantiles(0.50, 0.95, 0.99)
	for i, q := range qs {
		// Observe bumps count before the bucket add, so a concurrent
		// snapshot can still see empty buckets; clamp the sentinel rather
		// than let it wrap the unsigned wire fields.
		if q < 0 {
			qs[i] = 0
		}
	}
	return Summary{
		Count: uint64(h.Count()),
		Mean:  uint64(h.Mean()),
		P50:   uint64(qs[0]),
		P95:   uint64(qs[1]),
		P99:   uint64(qs[2]),
		Max:   uint64(h.Max()),
	}
}
