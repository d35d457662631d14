// Package server is strserve's network query-serving subsystem: a
// stdlib-only TCP server that puts a packed tree behind a socket for many
// independent clients — the regime the paper's LRU-buffer experiments
// simulate (Sections 3–4), where STR packing's fewer disk accesses per
// query pay off across heavy concurrent traffic.
//
// The server is production-shaped rather than a demo:
//
//   - one goroutine per connection, requests on a connection served in
//     order, connections served concurrently;
//   - admission control: a bounded semaphore caps in-flight requests, and
//     a request past the cap fast-fails with StatusOverloaded instead of
//     queueing unboundedly;
//   - per-request deadlines: each request's timeout (its own, else the
//     server default, capped at the server maximum) becomes a context
//     threaded into query execution, which checks it at every node visit;
//   - observability: per-op latency histograms (internal/histo), buffer
//     hit/miss counters and admission counters, all served over OpStats;
//   - graceful drain: Shutdown stops accepting, refuses new requests with
//     StatusDraining, lets in-flight requests finish under a deadline,
//     and only then closes connections.
//
// The connection lifecycle — everything in that list but the executor —
// is the serving frame (frame.go), which strrouter shares; this file is
// the handler the frame calls: one request executed against the tree.
// The wire protocol lives in internal/server/wire; a Go client with
// connection reuse in client.go; the run-until-signal loop of both
// binaries in run.go.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/histo"
	"strtree/internal/server/wire"
)

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// MaxInFlight caps concurrently executing requests across all
	// connections — the admission semaphore's size. Requests arriving
	// past the cap are rejected immediately with StatusOverloaded.
	// 0 means 64.
	MaxInFlight int
	// DefaultTimeout applies to requests that carry no deadline of their
	// own. 0 means 5s. A deadline a client asks for is capped at 60s, the
	// frame's MaxTimeout default, so a hostile client cannot park a worker.
	DefaultTimeout time.Duration
	// Mutable enables the mutation ops (OpInsert/OpDelete). Mutations
	// take an exclusive tree lock while queries share a read lock, so a
	// mutation waits for running queries and vice versa. When false
	// (default) mutation requests are refused with StatusBadRequest and
	// the tree is never written.
	Mutable bool
	// SlowQueryThreshold enables the slow-query log: a request whose
	// execution takes at least this long gets one Logf line recording its
	// op, duration and result count, and increments the slow-query
	// counter. 0 disables the log.
	SlowQueryThreshold time.Duration
	// SlowLogJSON, when non-nil, additionally writes each slow query as
	// one self-contained JSON object (op, geometry, k, duration, results,
	// status) to this writer — the structured capture `strbench -replay`
	// re-executes. Writes are serialized; the writer need not be
	// concurrency-safe. Requires SlowQueryThreshold > 0 to fire.
	SlowLogJSON io.Writer
	// Logf, when non-nil, receives one line per server-side failure
	// (internal errors, accept errors) and per slow query. nil disables
	// logging.
	Logf func(format string, args ...any)
}

// Server serves queries against one opened tree: a Frame whose handler
// executes each request against the tree. Create with New, run with
// Serve, stop with Shutdown. All exported methods are safe for
// concurrent use.
type Server struct {
	*Frame
	tree *strtree.Tree
	cfg  Config

	// treeMu serializes mutations against queries: the tree's contract is
	// one writer OR many readers. Queries hold it shared for the duration
	// of execute; OpInsert/OpDelete hold it exclusively.
	treeMu sync.RWMutex
	// mutApplied counts mutations actually applied to the tree (inserts
	// plus found deletes), for the admin metrics endpoint.
	// guarded by treeMu
	mutApplied uint64

	slow atomic.Uint64
	// batchQueries counts the windows of the batch requests executed.
	batchQueries atomic.Uint64

	// Per-op breakdowns, indexed by Op-1: requests executed, failures
	// (internal errors), and deadline/cancellation expiries.
	reqOp      [wire.NumOps]atomic.Uint64
	errOp      [wire.NumOps]atomic.Uint64
	deadlineOp [wire.NumOps]atomic.Uint64

	latOp [wire.NumOps]histo.Histogram

	// slowLog, when non-nil, receives one JSON record per slow query.
	slowLog *slowLogger
}

// New builds a server over an opened tree. The server does not own the
// tree: the caller closes it after Shutdown returns.
func New(tree *strtree.Tree, cfg Config) *Server {
	s := &Server{tree: tree, cfg: cfg}
	s.Frame = NewFrame(FrameConfig{
		Name:           "strserve",
		MaxInFlight:    cfg.MaxInFlight,
		DefaultTimeout: cfg.DefaultTimeout,
		Logf:           cfg.Logf,
	}, s.handle)
	s.registerTreeSeries()
	if cfg.SlowLogJSON != nil {
		s.slowLog = &slowLogger{w: cfg.SlowLogJSON}
	}
	return s
}

// handle is the frame's Handler: it executes one admitted request and
// turns an execution error into the in-band answer the frame counts.
func (s *Server) handle(ctx context.Context, req *wire.Request) *wire.Response {
	start := time.Now()
	resp, err := s.execute(ctx, req)
	elapsed := time.Since(start)
	s.latOp[req.Op-1].Observe(elapsed)
	s.reqOp[req.Op-1].Add(1)
	if req.Op == wire.OpBatch {
		s.batchQueries.Add(uint64(len(req.Batch)))
	}

	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.deadlineOp[req.Op-1].Add(1)
		resp = &wire.Response{Status: wire.StatusDeadline, Op: req.Op, Err: err.Error()}
	default:
		s.errOp[req.Op-1].Add(1)
		resp = &wire.Response{Status: wire.StatusInternal, Op: req.Op, Err: err.Error()}
	}
	if t := s.cfg.SlowQueryThreshold; t > 0 && elapsed >= t {
		s.slow.Add(1)
		s.Logf("slow query: op=%v dur=%v results=%d status=%v",
			req.Op, elapsed, resultCount(resp), resp.Status)
		if s.slowLog != nil {
			s.slowLog.log(s, slowRecord(req, resp, elapsed))
		}
	}
	return resp
}

// resultCount is the slow-query log's result-size figure: matches for
// searches, the count for counts, neighbors for nearest, summed matches
// for batches; error responses report 0.
func resultCount(resp *wire.Response) uint64 {
	switch {
	case resp.Status != wire.StatusOK:
		return 0
	case resp.Op == wire.OpCount:
		return resp.Count
	case resp.Op == wire.OpNearest:
		return uint64(len(resp.Neighbors))
	default:
		return resp.Matches()
	}
}

// execute runs one admitted request against the tree. Queries hold the
// tree read lock so a concurrent mutation cannot change pages mid-
// traversal; mutations branch off to executeMutation and its exclusive
// lock.
func (s *Server) execute(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if req.Op == wire.OpInsert || req.Op == wire.OpDelete {
		return s.executeMutation(req)
	}
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	resp := &wire.Response{Status: wire.StatusOK, Op: req.Op}
	switch req.Op {
	case wire.OpSearch, wire.OpSearchPoint, wire.OpBatch:
		// A search is a one-window batch. The tree's collecting read copies
		// each hit out of its pinned page once, into the answer: its item
		// lists are the response's (strtree.Item is wire.Item). One worker:
		// the server's other connections keep the cores busy, and a batch
		// fanned over GOMAXPROCS workers served no faster (DESIGN.md §17).
		qs := req.Batch
		switch req.Op {
		case wire.OpSearch:
			qs = []geom.Rect{req.Query}
		case wire.OpSearchPoint:
			qs = []geom.Rect{{Min: req.Point, Max: req.Point}} // aliases the point: see rtree.SearchPoint
		}
		results, err := s.tree.SearchBatchContext(ctx, qs, 1)
		if err != nil {
			return nil, err
		}
		if req.Op == wire.OpBatch {
			resp.Batch = results
		} else {
			resp.Items = results[0]
		}
	case wire.OpCount:
		n, err := s.tree.CountContext(ctx, req.Query)
		if err != nil {
			return nil, err
		}
		resp.Count = uint64(n)
	case wire.OpNearest:
		items, dists, err := s.tree.NearestKContext(ctx, req.Point, int(req.K))
		if err != nil {
			return nil, err
		}
		resp.Neighbors = make([]wire.Neighbor, len(items))
		for i, it := range items {
			resp.Neighbors[i] = wire.Neighbor{Item: it, Dist: dists[i]}
		}
	case wire.OpStats:
		resp.Stats = s.Stats()
	}
	return resp, nil
}

// executeMutation applies one OpInsert/OpDelete under the exclusive tree
// lock. Mutations are not cancellable mid-flight (the write path has no
// context variant; a single op is micro-seconds of work), so the request
// deadline only bounds the wait for the lock indirectly via the client.
// A dimensionality mismatch is the client's fault and answered in-band;
// storage failures surface as StatusInternal through the error return.
func (s *Server) executeMutation(req *wire.Request) (*wire.Response, error) {
	if !s.cfg.Mutable {
		return &wire.Response{
			Status: wire.StatusBadRequest,
			Op:     req.Op,
			Err:    "server is read-only: restart with mutations enabled to accept " + req.Op.String(),
		}, nil
	}
	if len(req.Query.Min) != s.tree.Dims() {
		return &wire.Response{
			Status: wire.StatusBadRequest,
			Op:     req.Op,
			Err:    fmt.Sprintf("rectangle has %d dims, tree has %d", len(req.Query.Min), s.tree.Dims()),
		}, nil
	}
	resp := &wire.Response{Status: wire.StatusOK, Op: req.Op}
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	switch req.Op {
	case wire.OpInsert:
		if err := s.tree.Insert(req.Query, req.ID); err != nil {
			return nil, err
		}
		s.mutApplied++
	case wire.OpDelete:
		found, err := s.tree.Delete(req.Query, req.ID)
		if err != nil {
			return nil, err
		}
		resp.Found = found
		if found {
			s.mutApplied++
		}
	}
	resp.Count = uint64(s.tree.Len())
	return resp, nil
}

// MutationsApplied returns the number of mutations applied to the tree
// since the server started (inserts plus found deletes).
func (s *Server) MutationsApplied() uint64 {
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	return s.mutApplied
}

// Stats snapshots the server's counters, gauges and latency digests plus
// the served tree's buffer counters.
func (s *Server) Stats() wire.Stats {
	ts := s.tree.Stats()
	st := wire.Stats{
		InFlight:     uint64(s.inFlight.Load()),
		Accepted:     s.accepted.Load(),
		Rejected:     s.rejected.Load(),
		TimedOut:     s.timedOut.Load(),
		Failed:       s.failed.Load(),
		Completed:    s.completed.Load(),
		Draining:     s.Draining(),
		LogicalReads: uint64(ts.LogicalReads),
		DiskReads:    uint64(ts.DiskReads),
		DiskWrites:   uint64(ts.DiskWrites),
		Evictions:    uint64(ts.Evictions),
		Latency:      wire.Summary(s.latAll.Summarize()),
	}
	for i := range s.latOp {
		st.PerOp[i] = wire.Summary(s.latOp[i].Summarize())
	}
	return st
}
