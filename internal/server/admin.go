package server

// This file registers strserve's own series next to the frame's: the
// per-op breakdowns, the batch windows executed, the served tree's buffer
// and read-path counters, and its shape. A batch runs as par.Each over the
// tree's collecting read with no gauges of its own, so its one series is a
// counter the handler adds to per request. The admin endpoint that serves
// them is the frame's (frame.go).

import (
	"strconv"

	"strtree/internal/obs"
	"strtree/internal/server/wire"
)

// registerTreeSeries adds the executor's, buffer's and read path's
// counters to the frame's registry, Func-backed like the frame's own.
func (s *Server) registerTreeSeries() {
	r := s.Registry()
	r.CounterFunc("strserve_slow_queries_total", "Requests at or above the slow-query threshold.", s.slow.Load)

	// Per-op request, error and deadline counters plus latency summaries.
	for i := 0; i < wire.NumOps; i++ {
		op := obs.L("op", wire.Op(i+1).String())
		r.CounterFunc("strserve_requests_total", "Requests executed, by operation.", s.reqOp[i].Load, op)
		r.CounterFunc("strserve_errors_total", "Requests failed with an internal error, by operation.", s.errOp[i].Load, op)
		r.CounterFunc("strserve_deadline_exceeded_total", "Requests cut off by their deadline, by operation.", s.deadlineOp[i].Load, op)
		r.HistogramFunc("strserve_op_latency_seconds", "Request execution latency, by operation.", &s.latOp[i], op)
	}

	// Per-shard buffer counters. Each closure snapshots all shards and
	// picks its own — O(shards) per series is irrelevant at scrape rates.
	shards := len(s.tree.ShardStats())
	for i := 0; i < shards; i++ {
		i := i
		shard := obs.L("shard", strconv.Itoa(i))
		r.CounterFunc("strserve_buffer_hits_total", "Page requests served from the buffer, by shard.",
			func() uint64 {
				st := s.tree.ShardStats()[i]
				return uint64(st.LogicalReads - st.DiskReads)
			}, shard)
		r.CounterFunc("strserve_buffer_misses_total", "Page requests that went to disk, by shard.",
			func() uint64 { return uint64(s.tree.ShardStats()[i].DiskReads) }, shard)
		r.CounterFunc("strserve_buffer_evictions_total", "Frames evicted, by shard.",
			func() uint64 { return uint64(s.tree.ShardStats()[i].Evictions) }, shard)
		r.GaugeFunc("strserve_buffer_pinned_frames", "Frames pinned right now, by shard.",
			func() float64 { return float64(s.tree.ShardStats()[i].Pinned) }, shard)
	}

	// Zero-copy read path: decode and allocation counters. A growing
	// allocs-to-queries ratio under steady load means the query path
	// regressed from allocation-free operation.
	r.CounterFunc("strserve_read_queries_total", "View-path query traversals started.",
		func() uint64 { return s.tree.ReadPathStats().Queries })
	r.CounterFunc("strserve_view_pages_total", "Pages decoded in place through node views (one per node visit of a query or of a mutation's descent).",
		func() uint64 { return s.tree.ReadPathStats().ViewPages })
	r.CounterFunc("strserve_checked_pages_total", "Full page validations (payload CRC and every entry's rectangle): one per buffer residency of a page, not one per visit.",
		func() uint64 { return s.tree.ReadPathStats().CheckedPages })
	r.CounterFunc("strserve_traverser_allocs_total", "Traversal-state pool misses, i.e. heap allocations of query state.",
		func() uint64 { return s.tree.ReadPathStats().TraverserAllocs })

	// Windows carried by batch requests (OpBatch), counted per request.
	r.CounterFunc("strserve_batch_queries_total", "Queries carried by the batch requests executed.", s.batchQueries.Load)

	// Served-tree shape, for dashboards joining load to index size.
	r.GaugeFunc("strserve_tree_items", "Items in the served tree.",
		func() float64 { return float64(s.tree.Len()) })
	r.GaugeFunc("strserve_tree_height", "Levels in the served tree.",
		func() float64 { return float64(s.tree.Height()) })
	r.CounterFunc("strserve_mutations_applied_total",
		"Mutations applied to the served tree (inserts plus found deletes).",
		s.MutationsApplied)
}
