// Package pack fixtures the determinism checks: internal/pack is one of
// the deterministic build layers, so map iteration order and wall-clock
// or random values must never reach its output.
package pack

import (
	"math/rand"
	"slices"
	"time"
)

// Writer consumes records in call order; its output depends on it.
type Writer struct{ records []string }

// WriteRecord appends one record to the output.
func (w *Writer) WriteRecord(k string, v int) {
	w.records = append(w.records, k)
}

// Keys fires maporder: the collected slice is returned unsorted, so map
// iteration order escapes.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want maporder
	}
	return out
}

// WriteAll fires maporder: each iteration writes a record, so the output
// order is the map's iteration order.
func WriteAll(m map[string]int, w *Writer) {
	for k, v := range m {
		w.WriteRecord(k, v) // want maporder
	}
}

// KeysSorted must not fire: the collection is sorted before use in the
// same block.
func KeysSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// SliceTotal must not fire: ranging over a slice is ordered.
func SliceTotal(xs []int) int {
	total := 0
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x)
		total += x
	}
	return total + len(out)
}

// Timed fires timerand twice: reading the wall clock in a build layer.
func Timed(work func()) time.Duration {
	start := time.Now() // want timerand
	work()
	return time.Since(start) // want timerand
}

// Shuffle fires timerand: randomness in a build layer.
func Shuffle(n int) int {
	return rand.Intn(n) // want timerand
}

// ShuffleSeeded must not fire: timerand flags the package-level functions,
// which draw from the global source; a generator the caller seeded and
// handed in is as deterministic as its seed.
func ShuffleSeeded(r *rand.Rand, n int) int {
	return r.Intn(n)
}
