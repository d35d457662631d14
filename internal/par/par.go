// Package par is the module's one fan-out loop. The paper's conclusion
// anticipates packing in parallel, and every place the module runs on
// several goroutines at once over independent units of work — the sort
// kernel's chunks and buckets, STR's slabs, TGS's two halves, the bulk
// loader's page runs, a query batch — is a call of Each: n indices, a
// number of workers, and a function called once per index. What a site
// decides for itself (how it cuts its work into indices, what it keeps per
// worker, in which order its results must land) stays at the site; how the
// indices reach the goroutines is decided here, once.
package par

import (
	"sync"
	"sync/atomic"
)

// chunkMin is the fewest items Chunks hands a goroutine of their own:
// below it the handoff costs more than it saves.
const chunkMin = 4096

// Each calls fn(w, i) once for each i in [0, n).
//
// With workers ≤ 1 or n ≤ 1 every call runs on the calling goroutine, in
// index order, with w = 0. Otherwise min(workers, n) goroutines, w = 0, 1,
// … naming each for the caller's per-worker scratch, claim the indices in
// ascending order off one shared counter while the caller waits, so a slow
// index does not idle the others. The first error fn returns stops further
// claims — calls already under way run to their end — and is what Each
// returns once every goroutine has returned.
func Each(n, workers int, fn func(w, i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	workers = min(workers, n)
	var (
		next  atomic.Int64 // indices claimed so far, n or more once claims stop
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := fn(w, i); err != nil {
					next.Store(int64(n)) // no one claims another index
					once.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// Chunks calls f over consecutive ranges [lo, hi) covering [0, n): over
// the w = min(workers, n/chunkMin) static ranges n·c/w … n·(c+1)/w,
// concurrently through Each, so no range is narrower than chunkMin; when w
// is at most 1, once, f(0, n), on the caller. The ranges depend on n and
// workers alone, never on which goroutine runs them.
func Chunks(n, workers int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers = min(workers, n/chunkMin); workers <= 1 {
		f(0, n)
		return
	}
	Each(workers, workers, func(_, c int) error {
		f(n*c/workers, n*(c+1)/workers)
		return nil
	})
}
