package par

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, read off its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestEach runs every index exactly once, names no worker outside
// [0, min(workers, n)), and with one worker or fewer runs the indices in
// order on the caller.
func TestEach(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 2, 8, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				hits := make([]atomic.Int32, n)
				var (
					mu      sync.Mutex
					order   []int
					badW    []int
					callers = map[uint64]bool{}
				)
				limit := max(min(workers, n), 1)
				if err := Each(n, workers, func(w, i int) error {
					hits[i].Add(1)
					mu.Lock()
					defer mu.Unlock()
					order = append(order, i)
					callers[goid()] = true
					if w < 0 || w >= limit {
						badW = append(badW, w)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Fatalf("index %d ran %d times", i, h)
					}
				}
				if len(badW) > 0 {
					t.Fatalf("worker ids %v outside [0, %d)", badW, limit)
				}
				if workers > 1 && n > 1 {
					return
				}
				for i, got := range order {
					if got != i {
						t.Fatalf("inline run out of order: call %d was index %d", i, got)
					}
				}
				if self := goid(); n > 0 && (len(callers) != 1 || !callers[self]) {
					t.Fatalf("inline run left the calling goroutine %d: ran on %v", self, callers)
				}
			})
		}
	}
}

// alive reports whether the goroutine with the given id still exists.
func alive(id uint64) bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(fmt.Sprintf("goroutine %d [", id)))
}

// TestEachFirstError returns the error of the failing index and claims no
// index once it has seen it: in order, nothing after k runs; in parallel,
// every other worker's first index waits until the goroutine that ran
// index k has exited — Each has seen the error by then — so any index
// beyond the first min(workers, n) would have been claimed after the
// failure.
func TestEachFirstError(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		ks := []int{0, 5}
		if workers > 1 {
			ks = []int{0, workers - 1}
		}
		for _, k := range ks {
			t.Run(fmt.Sprintf("workers=%d/k=%d", workers, k), func(t *testing.T) {
				const n = 1000
				errK := errors.New("index k failed")
				var (
					ran    = make([]atomic.Bool, n)
					failer atomic.Uint64 // the goroutine that ran index k
					gate   = make(chan struct{})
				)
				err := Each(n, workers, func(_, i int) error {
					ran[i].Store(true)
					if i == k {
						failer.Store(goid())
						close(gate)
						return errK
					}
					if workers > 1 && i < workers {
						<-gate
						for alive(failer.Load()) {
							runtime.Gosched()
						}
					}
					return nil
				})
				if err != errK {
					t.Fatalf("Each returned %v, want %v", err, errK)
				}
				if !ran[k].Load() {
					t.Fatalf("index %d never ran", k)
				}
				last := k // in order: nothing after k
				if workers > 1 {
					last = workers - 1
				}
				for i := range ran {
					if ran[i].Load() && i > last {
						t.Fatalf("index %d ran after index %d failed", i, k)
					}
				}
			})
		}
	}
}

// TestChunksCovers checks the static ranges cover [0, n) exactly once for
// awkward worker/size combinations.
func TestChunksCovers(t *testing.T) {
	for _, n := range []int{0, 1, 5, chunkMin, chunkMin + 3, 100003} {
		for _, workers := range []int{1, 2, 3, 7, 64, 100005} {
			hits := make([]int32, n)
			var mu sync.Mutex
			Chunks(n, workers, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, h)
				}
			}
		}
	}
}
