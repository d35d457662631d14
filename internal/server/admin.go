package server

// This file is the admin endpoint: the operational HTTP surface strserve
// exposes next to the query port (-admin). It serves Prometheus metrics,
// a JSON stats snapshot, a drain-aware health check and the stdlib pprof
// profiles. Bind it to loopback (or an otherwise trusted network): pprof
// and /stats expose internals that do not belong on the query-facing
// address.

import (
	"net/http"
	"net/http/pprof"
	"strconv"

	"strtree/internal/obs"
	"strtree/internal/server/wire"
)

// buildRegistry wires the server's, buffer's and batch executor's
// counters into an obs.Registry. Every series is Func-backed: scrapes
// sample the live atomics the serving path already maintains, so
// exposition never adds work to a request and never perturbs the
// counters it reports.
func (s *Server) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()

	// Admission and lifecycle.
	r.GaugeFunc("strserve_inflight_requests", "Requests currently executing.",
		func() float64 { return float64(s.inFlight.Load()) })
	r.CounterFunc("strserve_accepted_total", "Requests admitted past the admission semaphore.", s.accepted.Load)
	r.CounterFunc("strserve_rejected_total", "Requests refused with StatusOverloaded.", s.rejected.Load)
	r.CounterFunc("strserve_completed_total", "Requests answered with StatusOK.", s.completed.Load)
	r.CounterFunc("strserve_timedout_total", "Requests that exceeded their deadline.", s.timedOut.Load)
	r.CounterFunc("strserve_failed_total", "Requests that failed with an internal error.", s.failed.Load)
	r.CounterFunc("strserve_slow_queries_total", "Requests at or above the slow-query threshold.", s.slow.Load)
	r.GaugeFunc("strserve_draining", "1 while the server refuses new work (drain in progress), else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("strserve_ready", "1 while the health endpoint reports ready, else 0.",
		func() float64 {
			if s.Ready() {
				return 1
			}
			return 0
		})

	// Per-op request, error and deadline counters plus latency summaries.
	for i := 0; i < wire.NumOps; i++ {
		op := obs.L("op", wire.Op(i+1).String())
		r.CounterFunc("strserve_requests_total", "Requests executed, by operation.", s.reqOp[i].Load, op)
		r.CounterFunc("strserve_errors_total", "Requests failed with an internal error, by operation.", s.errOp[i].Load, op)
		r.CounterFunc("strserve_deadline_exceeded_total", "Requests cut off by their deadline, by operation.", s.deadlineOp[i].Load, op)
		r.HistogramFunc("strserve_op_latency_seconds", "Request execution latency, by operation.", &s.latOp[i], op)
	}
	r.HistogramFunc("strserve_latency_seconds", "Request execution latency across all operations.", &s.latAll)

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
	r.CounterFunc("strserve_traverser_allocs_total", "Traversal-state pool misses, i.e. heap allocations of query state.",
		func() uint64 { return s.tree.ReadPathStats().TraverserAllocs })

	// Batch executor activity (OpBatch requests).
	r.CounterFunc("strserve_batch_batches_total", "Batch requests completed by the executor.",
		func() uint64 { return s.tree.BatchExecStats().BatchesDone })
	r.CounterFunc("strserve_batch_queries_total", "Individual queries completed inside batches.",
		func() uint64 { return s.tree.BatchExecStats().QueriesDone })
	r.GaugeFunc("strserve_batch_queued_queries", "Batch queries admitted but not yet claimed by a worker.",
		func() float64 { return float64(s.tree.BatchExecStats().QueuedQueries) })
	r.GaugeFunc("strserve_batch_active_workers", "Batch workers currently executing a query.",
		func() float64 { return float64(s.tree.BatchExecStats().ActiveWorkers) })

	// Served-tree shape, for dashboards joining load to index size.
	r.GaugeFunc("strserve_tree_items", "Items in the served tree.",
		func() float64 { return float64(s.tree.Len()) })
	r.GaugeFunc("strserve_tree_height", "Levels in the served tree.",
		func() float64 { return float64(s.tree.Height()) })
	r.CounterFunc("strserve_mutations_applied_total",
		"Mutations applied to the served tree (inserts plus found deletes).",
		s.MutationsApplied)
	return r
}

// Registry returns the server's metrics registry, e.g. to register
// process-level series next to the serving ones.
func (s *Server) Registry() *obs.Registry { return s.reg }

// AdminHandler returns the admin HTTP surface:
//
//	/metrics        Prometheus text exposition (0.0.4)
//	/stats          the same series as JSON
//	/healthz        200 "ok" while ready; 503 "draining" once
//	                MarkNotReady or Shutdown has run
//	/debug/pprof/   the stdlib profiles
//
// The handler is safe for concurrent use and stays functional during and
// after a drain — scraping a draining server is exactly when the numbers
// matter.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w); err != nil {
			s.logf("strserve: admin: write /metrics: %v", err)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.reg.WriteJSON(w); err != nil {
			s.logf("strserve: admin: write /stats: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			if _, err := w.Write([]byte("draining\n")); err != nil {
				s.logf("strserve: admin: write /healthz: %v", err)
			}
			return
		}
		if _, err := w.Write([]byte("ok\n")); err != nil {
			s.logf("strserve: admin: write /healthz: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
