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
	"sync/atomic"

	"strtree/internal/geom"
	"strtree/internal/par"
)

// ExecMetrics aggregates batch activity across batches for the
// observability layer: how deep the work queue currently is, how many
// workers are executing, and cumulative batch/query throughput. All
// fields are atomics, updated by Run; one ExecMetrics may be shared by
// many concurrent batches. The zero value is ready to use.
type ExecMetrics struct {
	// BatchesStarted and BatchesDone count Run calls with a query.
	BatchesStarted atomic.Uint64
	BatchesDone    atomic.Uint64
	// QueriesDone counts individually completed queries (failed ones
	// included — they consumed a worker).
	QueriesDone atomic.Uint64
	// QueuedQueries is a gauge: queries admitted to some batch but not yet
	// claimed by a worker.
	QueuedQueries atomic.Int64
	// ActiveWorkers is a gauge: worker goroutines (or the sequential path)
	// currently executing a query.
	ActiveWorkers atomic.Int64
}

// Run calls do(w, i, qs[i]) once for every query on up to workers
// goroutines (workers < 1 means GOMAXPROCS) and accounts the batch in m.
// do must be safe for concurrent use, but distinct calls never share an
// index, so it may write the i-th slot of a result slice without a lock,
// and calls with the same w run one after another on one goroutine, so it
// may reuse scratch kept per worker (w < min(workers, len(qs))). One worker
// runs the batch strictly in order on the calling goroutine, preserving
// deterministic buffer accounting. Workers take queries as they free up
// (par.Each), so a slow query does not idle the rest of the pool. The
// first error stops the batch: remaining queries are abandoned and the
// error — a page read failure, typically — is returned wrapped as
// "query %d: ..." so logs can identify the offending request; errors.Is/As
// still reach the cause. (Making the caller worker 0 of the pool, as the
// router's fan-out does, was measured and not kept: EXPERIMENTS.md,
// PR 23.)
func Run(qs []geom.Rect, workers int, m *ExecMetrics, do func(w, i int, q geom.Rect) error) error {
	n := len(qs)
	if n == 0 {
		return nil
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	m.BatchesStarted.Add(1)
	m.QueuedQueries.Add(int64(n))
	var claimed atomic.Int64 // queries handed to a worker, for the queue-gauge drain
	defer func() {
		// An aborted batch abandons its unclaimed queries; they must leave
		// the queue gauge with it or the gauge leaks upward.
		m.QueuedQueries.Add(claimed.Load() - int64(n))
		m.BatchesDone.Add(1)
	}()
	return par.Each(n, workers, func(w, i int) error {
		claimed.Add(1)
		m.QueuedQueries.Add(-1)
		m.ActiveWorkers.Add(1)
		err := do(w, i, qs[i])
		m.ActiveWorkers.Add(-1)
		m.QueriesDone.Add(1)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		return nil
	})
}
