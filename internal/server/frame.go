package server

// This file is the serving frame: the one connection lifecycle strserve
// and strrouter share. It owns the listener and the accept loop, the
// per-connection read/answer loop, bounded admission, deadline
// derivation, readiness and the drain, the admission counters with their
// registry series, and the admin HTTP surface. What a request means is
// the Handler's business — the tree executor in server.go, the
// scatter-gather in internal/router — and the frame knows nothing about
// trees, shard maps or backends.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"strtree/internal/histo"
	"strtree/internal/obs"
	"strtree/internal/server/wire"
)

// Handler answers one admitted request. ctx carries the request's
// deadline and is cancelled by a forced drain; the response's status is
// what the frame counts and, for StatusInternal, logs.
type Handler func(ctx context.Context, req *wire.Request) *wire.Response

// FrameConfig is what a Frame needs besides its Handler.
type FrameConfig struct {
	// Name prefixes every series the frame registers and every line it
	// logs: "strserve", "strrouter".
	Name string
	// MaxInFlight caps concurrently executing requests across all
	// connections — the admission semaphore's size. Requests arriving
	// past the cap are rejected immediately with StatusOverloaded.
	// 0 means 64.
	MaxInFlight int
	// DefaultTimeout applies to requests that carry no deadline of their
	// own. 0 means 5s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines so a hostile client
	// cannot park a worker forever. 0 means 60s.
	MaxTimeout time.Duration
	// Logf, when non-nil, receives one line per frame-side failure
	// (internal errors, accept errors, responses that fail to encode).
	Logf func(format string, args ...any)
	// StatsPrefix and StatsSuffix, when set, are written around the JSON
	// array /stats serves, for a process that must qualify its numbers.
	StatsPrefix, StatsSuffix string
}

// WithDefaults resolves the zero admission limits to their defaults.
func (c FrameConfig) WithDefaults() FrameConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	return c
}

// Frame serves the wire protocol on one listener, handing each admitted
// request to its Handler. Create with NewFrame, run with Serve, stop
// with Shutdown. All exported methods are safe for concurrent use.
type Frame struct {
	fcfg    FrameConfig
	handler Handler

	// sem is the admission semaphore: one slot per executing request.
	sem chan struct{}

	// baseCtx parents every request context; cancelled when Shutdown
	// finishes, or as a last resort when a drain deadline expires with
	// requests still running.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener          // guarded by mu
	conns    map[net.Conn]struct{} // guarded by mu
	draining bool                  // guarded by mu

	reqWG  sync.WaitGroup // admitted requests (through response write)
	connWG sync.WaitGroup // connection handler goroutines

	inFlight  atomic.Int64
	accepted  atomic.Uint64
	rejected  atomic.Uint64
	timedOut  atomic.Uint64
	failed    atomic.Uint64
	completed atomic.Uint64

	// notReady flips the admin /healthz endpoint to 503 ahead of the
	// actual drain (MarkNotReady), so load balancers stop routing before
	// requests start being refused.
	notReady atomic.Bool

	// latAll is handler latency across all operations.
	latAll histo.Histogram

	// reg is the admin endpoint's metrics registry; its series sample the
	// atomics above at scrape time. Embedders add their own series to it.
	reg *obs.Registry
}

// NewFrame builds a frame around h and registers its admission series.
func NewFrame(cfg FrameConfig, h Handler) *Frame {
	cfg = cfg.WithDefaults()
	//strlint:ignore ctxprop the frame owns its lifecycle root context; Shutdown cancels it
	ctx, cancel := context.WithCancel(context.Background())
	f := &Frame{
		fcfg:       cfg,
		handler:    h,
		sem:        make(chan struct{}, cfg.MaxInFlight),
		baseCtx:    ctx,
		cancelBase: cancel,
		conns:      map[net.Conn]struct{}{},
		reg:        obs.NewRegistry(),
	}
	f.registerSeries()
	return f
}

// Logf writes one line to the configured logger, prefixed with the
// frame's name; without a logger it does nothing.
func (f *Frame) Logf(format string, args ...any) {
	if f.fcfg.Logf != nil {
		f.fcfg.Logf(f.fcfg.Name+": "+format, args...)
	}
}

// ErrAlreadyServing is returned by a second Serve call,
// ErrAlreadyShutDown by a second Shutdown call.
var (
	ErrAlreadyServing  = errors.New("server: already serving")
	ErrAlreadyShutDown = errors.New("server: already shut down")
)

// Serve accepts connections on ln until Shutdown. It blocks, returning
// nil after a drain-initiated stop or the first fatal accept error
// otherwise. The frame takes ownership of ln.
func (f *Frame) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.ln != nil {
		f.mu.Unlock()
		return ErrAlreadyServing
	}
	if f.draining {
		f.mu.Unlock()
		_ = ln.Close()
		return nil
	}
	f.ln = ln
	f.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if f.Draining() {
				return nil
			}
			// Transient accept failures (fd pressure) should not kill
			// the server; anything else is fatal.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			f.Logf("accept: %v", err)
			return err
		}
		f.mu.Lock()
		if f.draining {
			f.mu.Unlock()
			_ = conn.Close()
			continue
		}
		f.conns[conn] = struct{}{}
		f.connWG.Add(1)
		f.mu.Unlock()
		go f.handleConn(conn)
	}
}

// Addr returns the listener's address, or nil before Serve.
func (f *Frame) Addr() net.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ln == nil {
		return nil
	}
	return f.ln.Addr()
}

// Draining reports whether Shutdown has begun.
func (f *Frame) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// MarkNotReady flips the admin /healthz endpoint to 503 without starting
// the drain: requests keep being served. Call it a grace period before
// Shutdown so load balancers and orchestrators stop routing new clients
// here while the ones already connected finish normally (-drain-grace
// does exactly this). Shutdown implies it.
func (f *Frame) MarkNotReady() { f.notReady.Store(true) }

// Ready reports whether the admin health endpoint should answer 200:
// neither marked not-ready nor draining.
func (f *Frame) Ready() bool { return !f.notReady.Load() && !f.Draining() }

// Done is closed once Shutdown has drained (or given up on) every
// request: the moment background work tied to the frame should stop.
func (f *Frame) Done() <-chan struct{} { return f.baseCtx.Done() }

// handleConn serves one connection: frames are read and answered in
// order. Any transport or framing error closes the connection; request-
// level failures are answered in-band and keep the connection alive.
func (f *Frame) handleConn(conn net.Conn) {
	defer func() {
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
		_ = conn.Close()
		f.connWG.Done()
	}()
	c := &connIO{conn: conn, br: bufio.NewReader(conn)}
	for {
		payload, err := wire.ReadFrame(c.br, c.inBuf)
		if err != nil {
			// EOF: client went away (or drain closed the socket). Either
			// way the conversation is over; nothing to answer.
			return
		}
		c.inBuf = payload
		if !f.serveOne(c, payload) {
			return
		}
	}
}

// connIO is one connection's framing with its reusable frame buffers:
// reads are buffered, a response is assembled whole in outBuf and written
// to the socket in one call. The protocol is strictly request/response
// per connection, so the handler goroutine alone owns it.
type connIO struct {
	conn          net.Conn
	br            *bufio.Reader
	inBuf, outBuf []byte
}

// encode assembles resp's frame in the connection's write buffer. A
// response that cannot be encoded is a handler bug; one that encodes past
// wire.MaxFrame (ErrFrameTooLarge) is a query that matched too much, and
// its buffer is let go rather than kept for the connection's lifetime.
func (c *connIO) encode(resp *wire.Response) ([]byte, error) {
	out, err := wire.AppendResponse(wire.BeginFrame(c.outBuf), resp)
	if err != nil {
		return nil, err
	}
	if out, err = wire.EndFrame(out); err != nil {
		c.outBuf = nil
		return nil, err
	}
	c.outBuf = out
	return out, nil
}

// respond encodes one response and sends it.
func (f *Frame) respond(c *connIO, resp *wire.Response) bool {
	frame, err := c.encode(resp)
	return f.send(c, frame, err)
}

// send puts one encoded frame on the socket in a single Write, reporting
// whether the connection is still healthy. A response that could not be
// encoded is worth a log line; a failed write is a client gone away.
func (f *Frame) send(c *connIO, frame []byte, encodeErr error) bool {
	if encodeErr != nil {
		f.Logf("encode response: %v", encodeErr)
		return false
	}
	_, err := c.conn.Write(frame)
	return err == nil
}

// serveOne parses, admits, hands to the handler and answers one request,
// returning whether the connection should stay open.
func (f *Frame) serveOne(c *connIO, payload []byte) (keep bool) {
	req, err := wire.ParseRequest(payload)
	if err != nil {
		// Parse errors get an in-band answer, then the connection drops:
		// after a malformed frame the stream cannot be trusted.
		_ = f.respond(c, &wire.Response{
			Status: wire.StatusBadRequest,
			Op:     wire.OpSearch,
			Err:    err.Error(),
		})
		return false
	}

	release, status := f.admit()
	if status != wire.StatusOK {
		// Draining closes the connection after answering; overload keeps
		// it (the client is expected to back off and retry).
		ok := f.respond(c, &wire.Response{Status: status, Op: req.Op, Err: status.String()})
		return ok && status == wire.StatusOverloaded
	}
	// release only after the response frame is written: a draining
	// Shutdown waits on this slot and must not close the connection with
	// the answer still buffered.
	defer release()

	ctx, cancel := context.WithTimeout(f.baseCtx, f.timeoutFor(req))
	defer cancel()

	start := time.Now()
	resp := f.handler(ctx, req)
	f.latAll.Observe(time.Since(start))

	// An answer that does not fit a frame cannot be sent and must not be
	// counted as one: the client is told so in-band, on a connection that
	// stays usable, and the outcome below is a failure.
	frame, err := c.encode(resp)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		resp = &wire.Response{Status: wire.StatusInternal, Op: req.Op, Err: fmt.Sprintf(
			"response of %d items exceeds the frame limit of %d bytes: narrow the query",
			resultCount(resp), wire.MaxFrame)}
		frame, err = c.encode(resp)
	}

	// The one place outcomes are classified. Every other in-band answer
	// (a bad request, an unavailable shard) is neither completed nor failed.
	switch resp.Status {
	case wire.StatusOK:
		f.completed.Add(1)
	case wire.StatusDeadline:
		f.timedOut.Add(1)
	case wire.StatusInternal:
		f.failed.Add(1)
		f.Logf("%v request failed: %s", req.Op, resp.Err)
	}
	return f.send(c, frame, err)
}

// admit applies admission control: a full semaphore fast-fails with
// StatusOverloaded, a draining frame with StatusDraining. On StatusOK
// the caller must invoke release exactly once after the response is
// written — the drain path waits on it.
func (f *Frame) admit() (release func(), status wire.Status) {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return nil, wire.StatusDraining
	}
	select {
	case f.sem <- struct{}{}:
		// reqWG.Add must happen under mu, before Shutdown can flip
		// draining and call reqWG.Wait.
		f.reqWG.Add(1)
		f.mu.Unlock()
		f.inFlight.Add(1)
		f.accepted.Add(1)
		return func() {
			<-f.sem
			f.inFlight.Add(-1)
			f.reqWG.Done()
		}, wire.StatusOK
	default:
		f.mu.Unlock()
		f.rejected.Add(1)
		return nil, wire.StatusOverloaded
	}
}

// timeoutFor resolves a request's deadline: its own if set, else the
// default, never above the maximum.
func (f *Frame) timeoutFor(req *wire.Request) time.Duration {
	d := f.fcfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		d = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if d > f.fcfg.MaxTimeout {
		d = f.fcfg.MaxTimeout
	}
	return d
}

// Shutdown drains the frame: it stops accepting connections, refuses
// new requests with StatusDraining, waits for in-flight requests to
// finish writing their responses, then closes every connection. If ctx
// expires first, outstanding request contexts are cancelled (handlers
// unwind at their next check) and ctx's error is returned; on a clean
// drain it returns nil. After Shutdown returns nil every handler has
// exited and whatever the handler serves is safe to close.
func (f *Frame) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return ErrAlreadyShutDown
	}
	f.draining = true
	ln := f.ln
	f.mu.Unlock()
	f.notReady.Store(true)

	// Stop accepting. Serve's Accept unblocks with an error, sees
	// draining, and returns nil.
	if ln != nil {
		_ = ln.Close()
	}

	// Wait for admitted requests (through their response writes).
	done := make(chan struct{})
	go func() {
		f.reqWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		// Force outstanding requests to unwind, then give them a moment
		// to observe the cancellation.
		f.cancelBase()
		select {
		case <-done:
		case <-time.After(time.Second):
			f.Logf("drain deadline passed with requests still running")
		}
	}

	// Close every connection: parked readers get EOF and handlers exit.
	f.mu.Lock()
	for c := range f.conns {
		_ = c.Close()
	}
	f.mu.Unlock()

	if drainErr == nil {
		f.connWG.Wait()
	} else {
		// A stuck request (e.g. storage that never returns) can pin its
		// handler; bound the wait so a forced shutdown stays bounded.
		handlers := make(chan struct{})
		go func() {
			f.connWG.Wait()
			close(handlers)
		}()
		select {
		case <-handlers:
		case <-time.After(time.Second):
			f.Logf("handlers still running after forced drain")
		}
	}
	f.cancelBase()
	return drainErr
}

// registerSeries wires the admission and lifecycle counters into the
// registry under the frame's name. Every series is Func-backed: scrapes
// sample the live atomics the serving path already maintains, so
// exposition never adds work to a request and never perturbs the
// counters it reports.
func (f *Frame) registerSeries() {
	r, p := f.reg, f.fcfg.Name
	flag := func(fn func() bool) func() float64 {
		return func() float64 {
			if fn() {
				return 1
			}
			return 0
		}
	}
	r.GaugeFunc(p+"_inflight_requests", "Requests currently executing.",
		func() float64 { return float64(f.inFlight.Load()) })
	r.CounterFunc(p+"_accepted_total", "Requests admitted past the admission semaphore.", f.accepted.Load)
	r.CounterFunc(p+"_rejected_total", "Requests refused with StatusOverloaded.", f.rejected.Load)
	r.CounterFunc(p+"_completed_total", "Requests answered with StatusOK.", f.completed.Load)
	r.CounterFunc(p+"_timedout_total", "Requests that exceeded their deadline.", f.timedOut.Load)
	r.CounterFunc(p+"_failed_total", "Requests that failed with an internal error.", f.failed.Load)
	r.GaugeFunc(p+"_draining", "1 while new work is refused (drain in progress), else 0.", flag(f.Draining))
	r.GaugeFunc(p+"_ready", "1 while the health endpoint reports ready, else 0.", flag(f.Ready))
	r.HistogramFunc(p+"_latency_seconds", "Request latency inside the handler, across all operations.", &f.latAll)
}

// Registry returns the frame's metrics registry, e.g. to register
// process-level series next to the serving ones.
func (f *Frame) Registry() *obs.Registry { return f.reg }

// AdminHandler returns the admin HTTP surface:
//
//	/metrics        Prometheus text exposition (0.0.4)
//	/stats          the same series as a JSON array, inside the
//	                configured StatsPrefix/StatsSuffix if any
//	/healthz        200 "ok" while ready; 503 "draining" once
//	                MarkNotReady or Shutdown has run
//	/debug/pprof/   the stdlib profiles
//
// Bind it to loopback (or an otherwise trusted network): pprof and
// /stats expose internals that do not belong on the query-facing
// address. The handler is safe for concurrent use and stays functional
// during and after a drain — scraping a draining server is exactly when
// the numbers matter.
func (f *Frame) AdminHandler() http.Handler {
	// serve answers one path; a failed write means the scraper went away.
	serve := func(path, contentType string, write func(w http.ResponseWriter) error) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", contentType)
			if err := write(w); err != nil {
				f.Logf("admin: write %s: %v", path, err)
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", serve("/metrics", "text/plain; version=0.0.4; charset=utf-8",
		func(w http.ResponseWriter) error { return f.reg.WritePrometheus(w) }))
	mux.HandleFunc("/stats", serve("/stats", "application/json", func(w http.ResponseWriter) error {
		if _, err := io.WriteString(w, f.fcfg.StatsPrefix); err != nil {
			return err
		}
		if err := f.reg.WriteJSON(w); err != nil {
			return err
		}
		_, err := io.WriteString(w, f.fcfg.StatsSuffix)
		return err
	}))
	mux.HandleFunc("/healthz", serve("/healthz", "text/plain; charset=utf-8", func(w http.ResponseWriter) error {
		body := "ok\n"
		if !f.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			body = "draining\n"
		}
		_, err := io.WriteString(w, body)
		return err
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
