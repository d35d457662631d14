// Batch execution: a worker pool that fans a slice of window/point queries
// across goroutines sharing one tree and one (ideally sharded) buffer.
// This is the read-path counterpart of the parallel STR sort (pack.Workers):
// queries, like the paper's packing partitions, are independent units of
// work, so throughput scales with cores once the buffer stops serializing
// them — the same "parallelize the independent partitions" idea the
// MapReduce k-d-tree construction literature applies to spatial trees.
package query

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// SearchFunc runs one window query, streaming every matching entry to
// emit; returning false from emit stops that query early. It must be safe
// for concurrent use — a paged R-tree's Search through a pinned buffer is
// (see rtree.Tree.Search).
type SearchFunc func(q geom.Rect, emit func(e node.Entry) bool) error

// CountFunc answers one window query with its number of matches, under
// SearchFunc's concurrency contract (rtree.Tree.Count: Search's node visits
// in Search's order, no match copied out).
type CountFunc func(q geom.Rect) (int, error)

// BatchExecutor fans batches of queries across a fixed worker pool. The
// zero value is not usable: Run needs Search, RunCount needs Count. One
// executor may run many batches; it keeps no per-batch state.
type BatchExecutor struct {
	// Search executes a single query. Typically a closure over
	// rtree.Tree.Search with the tree behind a sharded buffer.
	Search SearchFunc
	// Count executes a single query for RunCount; typically
	// rtree.Tree.Count of the same tree.
	Count CountFunc
	// Workers is the number of concurrent query goroutines; values < 1
	// mean GOMAXPROCS. One worker executes the batch strictly
	// sequentially, preserving deterministic buffer accounting.
	Workers int
	// Observe, when non-nil, receives each query's index and wall-clock
	// latency as it completes. With more than one worker it is called
	// concurrently and must be safe for concurrent use. Latency-histogram
	// consumers (strbench -concurrency) hang their percentile accounting
	// here.
	Observe func(i int, d time.Duration)
	// Metrics, when non-nil, receives the executor's activity counters
	// and gauges. One ExecMetrics may be shared by many executors (a
	// served tree creates one executor per batch request); all updates
	// are atomic.
	Metrics *ExecMetrics
}

// ExecMetrics aggregates batch-executor activity across batches for the
// observability layer: how deep the work queue currently is, how many
// workers are executing, and cumulative batch/query throughput. All
// fields are atomics — read them with Load or snapshot with Stats. The
// zero value is ready to use.
type ExecMetrics struct {
	// BatchesStarted and BatchesDone count Run/RunCount calls.
	BatchesStarted atomic.Uint64
	BatchesDone    atomic.Uint64
	// QueriesDone counts individually completed queries (failed ones
	// included — they consumed a worker).
	QueriesDone atomic.Uint64
	// QueuedQueries is a gauge: queries admitted to some batch but not yet
	// claimed by a worker.
	QueuedQueries atomic.Int64
	// ActiveWorkers is a gauge: worker goroutines (or the sequential fast
	// path) currently executing a query.
	ActiveWorkers atomic.Int64
}

// ExecStats is a point-in-time snapshot of ExecMetrics.
type ExecStats struct {
	BatchesStarted, BatchesDone, QueriesDone uint64
	QueuedQueries, ActiveWorkers             int64
}

// Stats snapshots the metrics. The fields are read independently, so the
// snapshot is coherent only to within in-flight updates — fine for
// monitoring, not for invariant checks.
func (m *ExecMetrics) Stats() ExecStats {
	return ExecStats{
		BatchesStarted: m.BatchesStarted.Load(),
		BatchesDone:    m.BatchesDone.Load(),
		QueriesDone:    m.QueriesDone.Load(),
		QueuedQueries:  m.QueuedQueries.Load(),
		ActiveWorkers:  m.ActiveWorkers.Load(),
	}
}

// workers resolves the pool size for one batch.
func (e *BatchExecutor) workers(n int) int {
	w := e.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every query and collects its matches, returned in input
// order (results[i] holds query qs[i]'s matches; a query with no matches
// gets a nil slice). Workers claim queries from a shared counter, so a
// slow query does not idle the rest of the pool. The first error stops the
// batch: remaining queries are abandoned, and the error — a page read
// failure, typically — is propagated, never dropped, wrapped as
// "query %d: ..." so logs can identify the offending request.
func (e *BatchExecutor) Run(qs []geom.Rect) ([][]node.Entry, error) {
	results := make([][]node.Entry, len(qs))
	err := e.run(qs, func(i int, q geom.Rect) error {
		// A match's rectangle lives in a pinned page: it is copied out, all
		// of one query's into one slab (a query runs on one worker).
		var slab geom.Slab
		var out []node.Entry
		if err := e.Search(q, func(ent node.Entry) bool {
			ent.Rect = slab.Clone(ent.Rect)
			out = append(out, ent)
			return true
		}); err != nil {
			return err
		}
		results[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunCount executes every query and returns per-query match counts in
// input order, without materializing result sets — the shape the paper's
// access-count experiments use.
func (e *BatchExecutor) RunCount(qs []geom.Rect) ([]int, error) {
	counts := make([]int, len(qs))
	err := e.run(qs, func(i int, q geom.Rect) error {
		n, err := e.Count(q)
		counts[i] = n
		return err
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// run drives the worker pool: an atomic cursor hands out query indices,
// each worker writes only its own claimed slots, and the first error wins
// and stops everyone. Distinct workers never touch the same index, so the
// per-slot writes need no lock. Errors are wrapped with the failing
// query's index ("query %d: ...") — errors.Is/As still reach the cause.
// (Making the caller worker 0 of the pool, as the router's fan-out does,
// was measured and not kept: EXPERIMENTS.md, PR 23.)
func (e *BatchExecutor) run(qs []geom.Rect, do func(i int, q geom.Rect) error) error {
	n := len(qs)
	if n == 0 {
		return nil
	}
	if e.Observe != nil {
		inner := do
		do = func(i int, q geom.Rect) error {
			start := time.Now()
			err := inner(i, q)
			e.Observe(i, time.Since(start))
			return err
		}
	}
	claimed := 0 // queries handed to a worker, for the queue-gauge drain
	if m := e.Metrics; m != nil {
		m.BatchesStarted.Add(1)
		m.QueuedQueries.Add(int64(n))
		defer func() {
			// An aborted batch abandons its unclaimed queries; they must
			// leave the queue gauge with it or the gauge leaks upward.
			m.QueuedQueries.Add(int64(claimed - n))
			m.BatchesDone.Add(1)
		}()
		inner := do
		do = func(i int, q geom.Rect) error {
			m.QueuedQueries.Add(-1)
			m.ActiveWorkers.Add(1)
			err := inner(i, q)
			m.ActiveWorkers.Add(-1)
			m.QueriesDone.Add(1)
			return err
		}
	}
	w := e.workers(n)
	if w == 1 {
		// Sequential fast path: no goroutines, deterministic fetch order.
		for i, q := range qs {
			claimed = i + 1
			if err := do(i, q); err != nil {
				return fmt.Errorf("query %d: %w", i, err)
			}
		}
		return nil
	}
	var (
		cursor   atomic.Int64
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := do(i, qs[i]); err != nil {
					fail(fmt.Errorf("query %d: %w", i, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if c := int(cursor.Load()); c < n {
		claimed = c
	} else {
		claimed = n
	}
	return firstErr
}
