package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// nearest rank: the smallest value with at least q of the sample at or
// below it. An empty slice yields 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value (mean of the two middle values for an
// even count). An empty slice yields 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (its default "exclusive" method),
// so the spreads -repeat prints are the ones the benchmark driver
// computes. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median, the
// steadiness measure the driver holds each end-to-end metric to.
func relSpread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 <= 0 { // the ledger's end-to-end metrics are all positive
		return 0
	}
	return (q3 - q1) / q2
}

// minRounds is the fewest times a measured run goes through its fixed
// sequence of ops; it goes on for as many more rounds as start before
// -seconds are up (roundClock). Every op keeps the fastest of its timings.
// What the system does to an op — its own work, a wait behind the op
// scheduled before it — recurs in every round; what a shared box does to
// it (a neighbour's burst, a descheduled vCPU, a host that runs a fifth
// slower for some seconds) does not, and the shorter a round is against
// the run, the likelier every op meets one quiet moment. Counts are taken
// over the first minRounds rounds, which every run makes, so they do not
// depend on how many more the machine had time for. The traced pass's
// replays and ladder passes make exactly minRounds rounds.
const minRounds = 3

// roundClock counts a measured run's rounds, says when to stop, and
// takes the machine's speed at both ends of every round.
type roundClock struct {
	round    int // the round in progress, from 0
	deadline time.Time
	before   float64   // machineSpeed as the round in progress began
	speeds   []float64 // every round's, for harness.speed
}

// startRounds starts the clock of a measured run of -seconds.
func (c *runCtx) startRounds() *roundClock {
	// speeds has room for any run's rounds, so that taking a speed never
	// allocates inside a stretch whose allocations are being counted.
	return &roundClock{round: -1, deadline: time.Now().Add(c.measureFor()), speeds: make([]float64, 0, 256)}
}

// next reports whether another round is to run, and moves on to it.
func (rc *roundClock) next() bool {
	if rc.round+1 >= minRounds && !time.Now().Before(rc.deadline) {
		return false
	}
	rc.round++
	rc.before = machineSpeed()
	return true
}

// restart takes the speed at the round's beginning again, for a round that
// has untimed work to do first.
func (rc *roundClock) restart() { rc.before = machineSpeed() }

// speed is the machine's speed over the stretch since the round began, or
// since speed was last called in it: the mean of the speeds at its two
// ends. Call it when the stretch's last op has been timed.
func (rc *roundClock) speed() float64 {
	after := machineSpeed()
	s := (rc.before + after) / 2
	rc.before = after
	rc.speeds = append(rc.speeds, s)
	return s
}

// meanSpeed is harness.speed: the run's mean machine speed.
func (rc *roundClock) meanSpeed() float64 {
	sum := 0.0
	for _, s := range rc.speeds {
		sum += s
	}
	return sum / float64(max(len(rc.speeds), 1))
}

// keepFastest folds one round's latencies into the per-op minimum, each
// first restated at the reference box's speed: a round the machine ran a
// fifth slower (speed 0.8) has its timings cut by a fifth.
func keepFastest(best, lat []int64, speed float64, first bool) {
	for i, v := range lat {
		v = int64(float64(v) * speed)
		if first || v < best[i] {
			best[i] = v
		}
	}
}

// runDigest summarises a run's per-op fastest latencies: the rate they
// add up to and the percentiles among them.
type runDigest struct {
	ops      int
	busy     time.Duration // sum of the latencies
	p50, p99 float64       // microseconds
}

func (d runDigest) rate() float64 {
	if d.busy <= 0 {
		return 0
	}
	return float64(d.ops) / d.busy.Seconds()
}

// digestLatencies leaves lat (nanoseconds) untouched.
func digestLatencies(lat []int64) runDigest {
	s := slices.Clone(lat)
	slices.Sort(s)
	d := runDigest{ops: len(s), p50: float64(percentile(s, 0.50)) / 1e3, p99: float64(percentile(s, 0.99)) / 1e3}
	for _, v := range s {
		d.busy += time.Duration(v)
	}
	return d
}

func durationsMedian(ds []time.Duration) time.Duration {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return time.Duration(median(vals))
}

// p50us is the plain median of a nanosecond sample, in microseconds.
func p50us(lat []int64) float64 {
	s := slices.Clone(lat)
	slices.Sort(s)
	return float64(percentile(s, 0.50)) / 1e3
}

// meanUs is the mean of a nanosecond sample, in microseconds.
func meanUs(lat []int64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range lat {
		sum += float64(v)
	}
	return sum / float64(len(lat)) / 1e3
}
