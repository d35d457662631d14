// Package router is strrouter's fan-out proxy: it speaks the strserve
// wire protocol on both sides, multiplying one query endpoint across a
// fleet of shard backends. The shard map (internal/router/shardmap) is
// the STR paper's tiling applied at dataset scale: because each shard's
// MBR is a tight STR slab, a window or point query fans out only to the
// shards it overlaps — the same pruning argument that makes an STR-packed
// node hierarchy cheap makes the fan-out narrow.
//
// The front — listener, admission control, per-request deadlines,
// readiness, drain and the admin endpoint — is the serving frame the
// backends run on too (internal/server's Frame). The router is the
// handler behind it:
//
//   - scatter-gather on the back over pooled protocol clients with
//     bounded per-backend concurrency: the first shard's call is made on
//     the connection's own goroutine, goroutines start only for further
//     shards, and every call ends at the request's deadline at the
//     latest, so a hung backend costs a request its budget and the pool
//     a slot until then — never a parked goroutine;
//   - per-backend health: consecutive transport failures — a round trip
//     the backend let run into the request's deadline among them — eject
//     a backend from rotation, a probe loop re-admits it when it answers
//     again, and idempotent reads get one retry on another replica;
//   - deterministic merges: concatenation in shard-manifest order, kNN
//     k-way merge by (distance, ID), field-wise stats aggregation;
//   - a shard with no healthy replica answers StatusUnavailable in-band
//     — fast, never a hang;
//   - its own series next to the frame's (admin.go), and a Shutdown
//     that closes the backend pools once the frame has drained.
package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"strtree/internal/histo"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
	"strtree/internal/server/wire"
)

// Config tunes a Router. Map is required; everything else has sane
// defaults.
type Config struct {
	// Map is the shard map: every shard must list at least one address.
	Map *shardmap.Map
	// MaxInFlight, DefaultTimeout and MaxTimeout are the frame's
	// admission limits (server.FrameConfig), defaults included.
	MaxInFlight    int
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// BackendConcurrency is each backend's client-pool size: the most
	// requests in flight to one backend at once. 0 means 4.
	BackendConcurrency int
	// FailureThreshold is the consecutive transport failures that eject a
	// backend from rotation. 0 means 3.
	FailureThreshold int
	// ProbeInterval is how often ejected backends are re-probed. 0 means 2s.
	ProbeInterval time.Duration
	// DialTimeout caps backend connection establishment. 0 means 2s.
	DialTimeout time.Duration
	// IOTimeout caps one backend round trip's socket reads and writes.
	// 0 means MaxTimeout plus five seconds, so the transport guard sits
	// safely above any in-band deadline.
	IOTimeout time.Duration
	// Logf, when non-nil, receives one line per router-side failure.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.BackendConcurrency <= 0 {
		c.BackendConcurrency = 4
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	return c
}

// Router fans client requests out to shard backends and merges the
// answers: a server.Frame whose handler is the scatter-gather. Create
// with New, run with Serve, stop with Shutdown. All exported methods are
// safe for concurrent use.
type Router struct {
	*server.Frame
	cfg Config
	m   *shardmap.Map

	// replicas[shard] lists the shard's backends in address order of the
	// manifest (first preferred); backends is the same set deduplicated
	// by address, in first-appearance order, for probing and stats.
	replicas [][]*backend
	backends []*backend

	scatterWG sync.WaitGroup // scatter goroutines (may outlive their request by a moment)
	probeDone chan struct{}  // closed when the probe loop exits

	unavailable atomic.Uint64
	retriesTot  atomic.Uint64

	mergeLat histo.Histogram // merge step alone
	// fanWidth records each request's fan-out width (shards contacted),
	// encoded as whole seconds so the exposition's second-valued summary
	// reads directly in shards: a 3.0 quantile means 3 shards.
	fanWidth histo.Histogram
}

// New builds a router over a validated shard map. Every shard must carry
// at least one backend address.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Map == nil {
		return nil, errors.New("router: no shard map")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	for i, s := range cfg.Map.Shards {
		if len(s.Addrs) == 0 {
			return nil, fmt.Errorf("router: shard %d has no backend address", i)
		}
	}
	front := server.FrameConfig{
		Name:           "strrouter",
		MaxInFlight:    cfg.MaxInFlight,
		DefaultTimeout: cfg.DefaultTimeout,
		MaxTimeout:     cfg.MaxTimeout,
		Logf:           cfg.Logf,
		// /stats names the fold semantics so dashboards cannot mistake
		// merged tail latencies for exact cluster quantiles: any series
		// this process derives by folding per-shard digests (the OpStats
		// fan-out, mergeSummary) reports P50/P95/P99 as the max across
		// shards — an upper bound, since exact quantiles of independent
		// digests cannot be combined.
		StatsPrefix: `{"percentiles":"upper-bound","families":`,
		StatsSuffix: "}\n",
	}.WithDefaults()
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = front.MaxTimeout + 5*time.Second
	}
	r := &Router{
		cfg:       cfg,
		m:         cfg.Map,
		probeDone: make(chan struct{}),
	}
	byAddr := map[string]*backend{}
	r.replicas = make([][]*backend, len(r.m.Shards))
	for i, s := range r.m.Shards {
		for _, addr := range s.Addrs {
			b, ok := byAddr[addr]
			if !ok {
				b = newBackend(addr, cfg.BackendConcurrency, cfg.DialTimeout, cfg.IOTimeout)
				byAddr[addr] = b
				r.backends = append(r.backends, b)
			}
			r.replicas[i] = append(r.replicas[i], b)
		}
	}
	r.Frame = server.NewFrame(front, r.handle)
	r.registerFanoutSeries()
	//strlint:ignore waitpair probeLoop closes r.probeDone on exit; Shutdown waits on it
	go r.probeLoop()
	return r, nil
}

// probeLoop periodically re-probes ejected backends with a stats ping
// and restores the ones that answer. It exits when the frame's Shutdown
// is done.
func (r *Router) probeLoop() {
	defer close(r.probeDone)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.Done():
			return
		case <-t.C:
		}
		for _, b := range r.backends {
			if b.healthy() {
				continue
			}
			probeMs := uint32(r.cfg.DialTimeout / time.Millisecond)
			if probeMs == 0 {
				probeMs = 1
			}
			resp, err := b.probe.Do(&wire.Request{Op: wire.OpStats, TimeoutMillis: probeMs})
			if err != nil || resp.Status != wire.StatusOK {
				continue
			}
			b.noteSuccess()
			r.Logf("backend %s restored", b.addr)
		}
	}
}

// BackendStats snapshots every backend's health and counters, in the
// manifest's first-appearance address order.
func (r *Router) BackendStats() []BackendStats {
	out := make([]BackendStats, len(r.backends))
	for i, b := range r.backends {
		out[i] = b.stats()
	}
	return out
}

// handle is the frame's Handler: it refuses what the router cannot serve
// and fans the rest out.
func (r *Router) handle(ctx context.Context, req *wire.Request) *wire.Response {
	if req.Op == wire.OpInsert || req.Op == wire.OpDelete {
		// The router serves the read path only: a mutation would have to
		// pick (and possibly re-balance) a shard, which the static shard
		// map cannot express. Mutate the owning strserve directly.
		return &wire.Response{
			Status: wire.StatusBadRequest,
			Op:     req.Op,
			Err:    "router is read-only: send mutations to a backend server directly",
		}
	}
	if err := r.checkDims(req); err != nil {
		// Wrong dimensionality is a client error the backends would each
		// reject; answer once here, before any of them sees it.
		return &wire.Response{Status: wire.StatusBadRequest, Op: req.Op, Err: err.Error()}
	}
	resp := r.fanout(ctx, req)
	if resp.Status == wire.StatusUnavailable {
		r.unavailable.Add(1)
	}
	return resp
}

// checkDims rejects geometry whose dimensionality does not match the
// shard map's before any backend sees it.
func (r *Router) checkDims(req *wire.Request) error {
	bad := func(d int) error {
		return fmt.Errorf("router: %d-d geometry against a %d-d shard map", d, r.m.Dims)
	}
	switch req.Op {
	case wire.OpSearch, wire.OpCount:
		if req.Query.Dim() != r.m.Dims {
			return bad(req.Query.Dim())
		}
	case wire.OpSearchPoint, wire.OpNearest:
		if len(req.Point) != r.m.Dims {
			return bad(len(req.Point))
		}
	case wire.OpBatch:
		for _, q := range req.Batch {
			if q.Dim() != r.m.Dims {
				return bad(q.Dim())
			}
		}
	}
	return nil
}

// targetsFor prunes the fan-out: the shards a request must visit, in
// manifest order. Window and count queries visit shards overlapping the
// window, point queries shards containing the point, batches the union
// of their windows' overlaps; nearest-neighbor and stats broadcast
// (distance to the true k-th neighbor is unknowable in advance).
func (r *Router) targetsFor(req *wire.Request) []int {
	switch req.Op {
	case wire.OpSearch, wire.OpCount:
		return r.m.OverlapRect(req.Query)
	case wire.OpSearchPoint:
		return r.m.OverlapPoint(req.Point)
	case wire.OpBatch:
		out := make([]int, 0, len(r.m.Shards))
		for _, id := range r.m.All() {
			mbr := r.m.Shards[id].MBR.Rect()
			for _, q := range req.Batch {
				if mbr.Intersects(q) {
					out = append(out, id)
					break
				}
			}
		}
		return out
	default: // OpNearest, OpStats
		return r.m.All()
	}
}

// budgetMargin is how much sooner than the router's own deadline a
// backend's in-band budget ends (rounding down to the wire's milliseconds
// adds up to one more). A runtime timer fires up to a millisecond late,
// on either side, so one millisecond would leave a slow backend's
// StatusDeadline racing the router's interruption of the same round trip.
const budgetMargin = 2 * time.Millisecond

// backendBudget is the in-band deadline, in the wire's milliseconds, for
// a backend called with remaining left of the router's own: never 0,
// which means "server default".
func backendBudget(remaining time.Duration) uint32 {
	return uint32(max((remaining-budgetMargin)/time.Millisecond, 1))
}

// fanout scatters one admitted request to its target shards, gathers,
// and merges. A request changes goroutine only where there is parallel
// work to be had: the handler's own goroutine makes the first target's
// call and goroutines are started for the rest, so a request that reaches
// one shard — most do, the shard map being an STR tiling — never leaves
// the connection's goroutine. Every shard call ends at ctx's deadline
// (tryBackend), so the gather answers StatusDeadline at the deadline
// even if a backend never answers.
func (r *Router) fanout(ctx context.Context, req *wire.Request) *wire.Response {
	targets := r.targetsFor(req)
	r.fanWidth.Observe(time.Duration(len(targets)) * time.Second)
	if len(targets) == 0 {
		// Nothing overlaps: the answer is trivially empty.
		return emptyResponse(req)
	}

	// Propagate the remaining budget to the backends in-band, ending
	// budgetMargin before ours: a backend that is merely slow then says
	// StatusDeadline itself — a sign of life — before the router gives up
	// on the round trip, which counts against it.
	sub := *req
	if dl, ok := ctx.Deadline(); ok {
		sub.TimeoutMillis = backendBudget(time.Until(dl))
	}

	results := make([]*wire.Response, len(targets))
	done := make(chan struct{}, len(targets)-1)
	for i, sid := range targets[1:] {
		r.scatterWG.Add(1)
		go func(i, sid int) {
			defer r.scatterWG.Done()
			results[i] = r.shardCall(ctx, sid, &sub)
			done <- struct{}{}
		}(i+1, sid)
	}
	results[0] = r.shardCall(ctx, targets[0], &sub)
	for range targets[1:] {
		select {
		case <-done:
		case <-ctx.Done():
			return deadlineResponse(ctx, req)
		}
	}

	t0 := time.Now()
	resp := mergeResponses(req, results, int(req.K))
	r.mergeLat.Observe(time.Since(t0))
	return resp
}

// deadlineResponse is the answer when ctx ended before a shard's did.
func deadlineResponse(ctx context.Context, req *wire.Request) *wire.Response {
	return &wire.Response{Status: wire.StatusDeadline, Op: req.Op, Err: ctx.Err().Error()}
}

// emptyResponse is the answer when no shard overlaps the query.
func emptyResponse(req *wire.Request) *wire.Response {
	resp := &wire.Response{Status: wire.StatusOK, Op: req.Op}
	if req.Op == wire.OpBatch {
		resp.Batch = make([][]wire.Item, len(req.Batch))
	}
	return resp
}

// shardCall executes one shard's part of a request: the first healthy
// replica, with one retry on the next healthy replica after a transport
// failure or draining answer (every protocol op is an idempotent read,
// so the retry is always safe). No healthy replica left means an in-band
// StatusUnavailable — fast-fail, never a hang.
func (r *Router) shardCall(ctx context.Context, shardID int, req *wire.Request) *wire.Response {
	attempts := 0
	for _, b := range r.replicas[shardID] {
		if !b.healthy() {
			continue
		}
		if attempts > 0 {
			b.retries.Add(1)
			r.retriesTot.Add(1)
		}
		resp, retryable := r.tryBackend(ctx, b, req)
		if resp != nil {
			return resp
		}
		if !retryable {
			break
		}
		attempts++
		if attempts > 1 {
			break // one retry only
		}
	}
	return &wire.Response{
		Status: wire.StatusUnavailable,
		Op:     req.Op,
		Err:    fmt.Sprintf("shard %d: no healthy replica", shardID),
	}
}

// tryBackend runs one round trip against one backend. It returns a
// response to forward, or nil with retryable=true when the attempt
// failed in a way another replica might answer (transport failure,
// draining backend). The round trip ends when ctx does: the client drops
// its connection and the pool slot is free again at the request's
// deadline, not at the transport timeout far above it. Such an overrun
// — the backend was given a budget ending before ctx's and sent nothing —
// is the transport timeout it pre-empts, arrived early, and counts
// toward ejection like one; a StatusDeadline reply does not, being a
// reply. A deadline expiring while waiting for a pool slot returns the
// deadline response directly and is charged to nobody.
func (r *Router) tryBackend(ctx context.Context, b *backend, req *wire.Request) (resp *wire.Response, retryable bool) {
	var cl *server.Client
	select {
	case cl = <-b.pool:
	case <-ctx.Done():
		return deadlineResponse(ctx, req), false
	}
	b.requests.Add(1)
	out, err := cl.Relay(ctx, req)
	b.pool <- cl
	if err != nil {
		b.errors.Add(1)
		if b.noteFailure(r.cfg.FailureThreshold) {
			r.Logf("backend %s ejected after %d consecutive failures: %v",
				b.addr, r.cfg.FailureThreshold, err)
		}
		if ctx.Err() != nil {
			return deadlineResponse(ctx, req), false // no budget left for a replica
		}
		return nil, true
	}
	if out.Status == wire.StatusDraining {
		// A draining backend is going away on purpose; treat like a
		// transport failure so traffic shifts to replicas and the probe
		// loop notices when (if) it returns.
		b.errors.Add(1)
		if b.noteFailure(r.cfg.FailureThreshold) {
			r.Logf("backend %s ejected: draining", b.addr)
		}
		return nil, true
	}
	// Any other in-band answer — OK or a refusal — proves the backend
	// alive and is the shard's answer.
	b.noteSuccess()
	return out, false
}

// Shutdown drains the frame, then finishes what is the router's own: the
// probe loop stops, scatter goroutines are waited out and every backend
// client closes. If ctx expires first, outstanding fan-outs are cancelled
// and ctx's error is returned.
func (r *Router) Shutdown(ctx context.Context) error {
	err := r.Frame.Shutdown(ctx)
	if errors.Is(err, server.ErrAlreadyShutDown) {
		return err
	}
	<-r.probeDone

	// A scatter goroutine outlives a request answered at its deadline only
	// until its own round trip notices the same deadline; wait them out so
	// the backend pools are quiescent before closing their connections.
	scatter := make(chan struct{})
	go func() {
		r.scatterWG.Wait()
		close(scatter)
	}()
	select {
	case <-scatter:
		for _, b := range r.backends {
			b.close()
		}
	case <-time.After(5 * time.Second):
		r.Logf("scatter goroutines still running; leaving backend connections to the OS")
	}
	return err
}
