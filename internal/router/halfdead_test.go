package router

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
	"strtree/internal/server/wire"
)

// The router makes a request's first shard call on the connection's own
// goroutine, so the round trip itself has to end at the request's
// deadline. These tests hold it to that against backends that are half
// dead — they accept and never answer, or answer late — which is where a
// blocking call could hang a client, pin a pool or poison a connection.

// deadline is every request's budget here; slack is how far past it an
// answer may arrive.
const (
	deadline = 100 * time.Millisecond
	slack    = 50 * time.Millisecond
)

// stub is a backend whose behaviour a test switches while it serves: it
// answers Count 7 at once (or what do says), or — between hang and
// recover — parks every request, ignoring its context, as a hung
// process would.
type stub struct {
	addr string
	do   func(ctx context.Context, req *wire.Request) *wire.Response

	mu   sync.Mutex
	gate chan struct{} // non-nil while hung: handlers park on it
}

func (s *stub) hang() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = make(chan struct{})
}

// recover lets every parked handler answer — late, to whoever still
// listens — and new requests through.
func (s *stub) recover() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
	}
}

func (s *stub) handle(ctx context.Context, req *wire.Request) *wire.Response {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if s.do != nil {
		return s.do(ctx, req)
	}
	return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: 7}
}

// startStub serves a stub backend on loopback until the test ends.
func startStub(t *testing.T, do func(ctx context.Context, req *wire.Request) *wire.Response) *stub {
	t.Helper()
	s := &stub{do: do}
	f := server.NewFrame(server.FrameConfig{Name: "stub"}, s.handle)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	served := make(chan error, 1)
	go func() { served <- f.Serve(ln) }()
	t.Cleanup(func() {
		s.recover()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
		<-served
	})
	return s
}

// deafListener accepts connections and never reads a byte from them.
func deafListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return ln.Addr().String()
}

// stripes is a shard map of vertical stripes of the unit square, one per
// address: window(i, j) overlaps exactly shards i..j.
func stripes(addrs ...string) *shardmap.Map {
	m := &shardmap.Map{Version: shardmap.FormatVersion, Dims: 2}
	n := float64(len(addrs))
	for i, a := range addrs {
		m.Shards = append(m.Shards, shardmap.Shard{
			ID:    i,
			MBR:   shardmap.RectJSON{Min: []float64{float64(i) / n, 0}, Max: []float64{(float64(i) + 0.99) / n, 1}},
			Count: 7,
			Addrs: []string{a},
		})
	}
	return m
}

func window(m *shardmap.Map, i, j int) geom.Rect {
	return geom.R2(m.Shards[i].MBR.Min[0], 0, m.Shards[j].MBR.Max[0], 1)
}

// startRouter serves a router over m until the test ends (or the test
// shuts it down itself) and returns it with a client whose requests carry
// the test deadline.
func startRouter(t *testing.T, cfg Config) (*Router, *server.Client) {
	t.Helper()
	cfg.IOTimeout = 30 * time.Second // far above any deadline: never what ends a round trip
	cfg.DialTimeout = 250 * time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- rt.Serve(ln) }()
	cl := server.Dial(ln.Addr().String())
	cl.SetRequestTimeout(deadline)
	t.Cleanup(func() {
		_ = cl.Close()
		if !rt.Draining() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := rt.Shutdown(ctx); err != nil {
				t.Errorf("router shutdown: %v", err)
			}
		}
		if err := <-served; err != nil {
			t.Errorf("router serve: %v", err)
		}
	})
	return rt, cl
}

// expectDeadline sends one count and requires StatusDeadline no later
// than slack past the deadline — and no earlier than the deadline.
func expectDeadline(t *testing.T, cl *server.Client, q geom.Rect, what string) {
	t.Helper()
	start := time.Now()
	_, err := cl.Count(q)
	took := time.Since(start)
	if !errors.Is(err, server.ErrDeadline) {
		t.Fatalf("%s: %v after %v, want ErrDeadline", what, err, took)
	}
	if took < deadline-5*time.Millisecond || took > deadline+slack {
		t.Fatalf("%s: answered after %v, want the %v deadline (+%v)", what, took, deadline, slack)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHungBackendAnswersAtDeadline: whichever goroutine a hung backend's
// call is on — the handler's own (the first target) or a spawned one —
// and whether the backend reads the request or not, the client has
// StatusDeadline at its deadline, not at the transport timeout.
func TestHungBackendAnswersAtDeadline(t *testing.T) {
	hung := startStub(t, nil)
	hung.hang()
	deaf := deafListener(t)
	ok1, ok2 := startStub(t, nil), startStub(t, nil)

	for _, tc := range []struct {
		name  string
		addrs []string
		lo    int // the window overlaps shards lo..hi
		hi    int
	}{
		{"fan-out 1, hung", []string{hung.addr, ok1.addr, ok2.addr}, 0, 0},
		{"fan-out 1, deaf", []string{ok1.addr, deaf, ok2.addr}, 1, 1},
		{"fan-out 3, first target hung", []string{hung.addr, ok1.addr, ok2.addr}, 0, 2},
		{"fan-out 3, last target deaf", []string{ok1.addr, ok2.addr, deaf}, 0, 2},
		{"fan-out 3, all hung", []string{hung.addr, deaf, hung.addr}, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := stripes(tc.addrs...)
			_, cl := startRouter(t, Config{Map: m, FailureThreshold: 100})
			expectDeadline(t, cl, window(m, tc.lo, tc.hi), tc.name)
			// The healthy shards of the same router still answer.
			for i, a := range tc.addrs {
				if a == ok1.addr || a == ok2.addr {
					if n, err := cl.Count(window(m, i, i)); err != nil || n != 7 {
						t.Fatalf("healthy shard %d = %d, %v", i, n, err)
					}
				}
			}
		})
	}
}

// TestHungBackendFreesItsPoolAndIsEjected: a round trip given up at the
// deadline gives its pool slot back then, so requests past the pool's
// size still reach the backend; each overrun counts toward ejection like
// the transport timeout it pre-empts, and the probe loop restores the
// backend once it answers again.
func TestHungBackendFreesItsPoolAndIsEjected(t *testing.T) {
	const conc, threshold = 2, 5
	b := startStub(t, nil)
	b.hang()
	m := stripes(b.addr)
	rt, cl := startRouter(t, Config{
		Map: m, BackendConcurrency: conc, FailureThreshold: threshold, ProbeInterval: 20 * time.Millisecond,
	})
	q := window(m, 0, 0)
	for i := 1; i <= threshold; i++ {
		expectDeadline(t, cl, q, "overrun")
		st := rt.BackendStats()[0]
		if st.Requests != uint64(i) || st.Errors != uint64(i) {
			t.Fatalf("after %d overruns at pool size %d: %d round trips started, %d failed — a hung call kept its slot",
				i, conc, st.Requests, st.Errors)
		}
		if want := i >= threshold; st.Ejected != want {
			t.Fatalf("after %d overruns at threshold %d: ejected = %v", i, threshold, st.Ejected)
		}
	}
	// Ejected: refused at once, nothing sent. (The prober's pings park
	// like everything else, so the backend stays out until it recovers.)
	start := time.Now()
	if _, err := cl.Count(q); !errors.Is(err, server.ErrUnavailable) || time.Since(start) > slack {
		t.Fatalf("request to an ejected backend: %v after %v, want ErrUnavailable at once", err, time.Since(start))
	}
	if st := rt.BackendStats()[0]; st.Ejections != 1 || st.Requests != threshold {
		t.Fatalf("ejected backend: %+v; want 1 ejection, %d round trips", st, threshold)
	}

	b.recover()
	waitFor(t, "the probe loop to restore the backend", func() bool {
		st := rt.BackendStats()[0]
		return !st.Ejected && st.Restores >= 1
	})
	if n, err := cl.Count(q); err != nil || n != 7 {
		t.Fatalf("restored backend = %d, %v", n, err)
	}
}

// TestSlowBackendIsNotMistakenForHung: a backend is given a budget that
// ends before the router's, so one that is merely slow answers
// StatusDeadline itself; that answer is a sign of life and is never
// charged. And a late answer between two good ones resets the streak
// instead of ejecting.
func TestSlowBackendIsNotMistakenForHung(t *testing.T) {
	var budgets sync.Map // arrival number -> the in-band budget received
	var arrivals atomic.Int64
	slow := startStub(t, func(_ context.Context, req *wire.Request) *wire.Response {
		budgets.Store(arrivals.Add(1), req.TimeoutMillis)
		// Its own deadline, well clear of the router's: which of two timers
		// a millisecond apart fires first is not for a test to depend on.
		time.Sleep(time.Duration(req.TimeoutMillis) * time.Millisecond / 2)
		return &wire.Response{Status: wire.StatusDeadline, Op: req.Op, Err: "deadline exceeded"}
	})
	m := stripes(slow.addr)
	rt, cl := startRouter(t, Config{Map: m, FailureThreshold: 1})
	for i := 0; i < 3; i++ {
		if _, err := cl.Count(window(m, 0, 0)); !errors.Is(err, server.ErrDeadline) {
			t.Fatalf("slow backend's own StatusDeadline came through as %v", err)
		}
	}
	if st := rt.BackendStats()[0]; st.Errors != 0 || st.Ejected || st.Requests != 3 {
		t.Fatalf("a backend that says StatusDeadline itself was charged: %+v", st)
	}
	budgets.Range(func(_, v any) bool {
		if ms, most := v.(uint32), uint32((deadline-budgetMargin)/time.Millisecond); ms < 1 || ms > most {
			t.Errorf("in-band budget %d ms: want 1..%d, short of the router's %v", ms, most, deadline)
		}
		return true
	})
	for _, tc := range []struct {
		remaining time.Duration
		want      uint32
	}{
		{100 * time.Millisecond, 98}, {99900 * time.Microsecond, 97}, {4 * time.Millisecond, 2},
		// Never 0, which a backend reads as "no deadline of your own".
		{3900 * time.Microsecond, 1}, {time.Millisecond, 1}, {0, 1}, {-time.Second, 1},
	} {
		if got := backendBudget(tc.remaining); got != tc.want {
			t.Errorf("backendBudget(%v) = %d ms, want %d", tc.remaining, got, tc.want)
		}
	}

	flaky := startStub(t, nil)
	m = stripes(flaky.addr)
	rt, cl = startRouter(t, Config{Map: m, FailureThreshold: 2})
	for round := 0; round < 3; round++ {
		if n, err := cl.Count(window(m, 0, 0)); err != nil || n != 7 {
			t.Fatalf("round %d: %d, %v", round, n, err)
		}
		flaky.hang()
		expectDeadline(t, cl, window(m, 0, 0), "one late answer")
		flaky.recover()
	}
	if st := rt.BackendStats()[0]; st.Ejections != 0 || st.Ejected || st.Errors != 3 {
		t.Fatalf("three isolated overruns at threshold 2: %+v; want 3 errors, no ejection", st)
	}
}

// TestLateAnswerDoesNotPoisonThePool: the backend answers after the
// router gave up. The connection that answer arrives on was dropped at
// the deadline, so the next request through the same pool slot gets its
// own answer on a fresh one.
func TestLateAnswerDoesNotPoisonThePool(t *testing.T) {
	var n atomic.Int64
	b := startStub(t, func(_ context.Context, req *wire.Request) *wire.Response {
		if n.Add(1) == 1 {
			time.Sleep(deadline + 50*time.Millisecond) // past the router's patience
			return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: 111}
		}
		return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: 7}
	})
	m := stripes(b.addr)
	_, cl := startRouter(t, Config{Map: m, BackendConcurrency: 1, FailureThreshold: 100})
	expectDeadline(t, cl, window(m, 0, 0), "late answer")
	time.Sleep(100 * time.Millisecond) // the late 111 is written now, to nobody
	for i := 0; i < 3; i++ {
		got, err := cl.Count(window(m, 0, 0))
		if err != nil || got != 7 {
			t.Fatalf("request %d after a late answer = %d, %v; want 7 (111 is the late reply to another request)", i, got, err)
		}
	}
}

// TestForcedShutdownWithHungBackends: a drain whose deadline expires with
// fan-outs blocked on backends that will never answer cancels them, is
// back within its bounded wait, and leaves no scatter goroutine behind.
func TestForcedShutdownWithHungBackends(t *testing.T) {
	hung := startStub(t, nil)
	hung.hang()
	m := stripes(hung.addr, deafListener(t), hung.addr)
	rt, cl := startRouter(t, Config{Map: m, FailureThreshold: 100})
	cl.SetRequestTimeout(20 * time.Second)
	cl.SetTransportTimeouts(time.Second, 30*time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Count(window(m, 0, 2))
		done <- err
	}()
	waitFor(t, "the fan-out to be in flight", func() bool {
		var sent uint64
		for _, st := range rt.BackendStats() {
			sent += st.Requests
		}
		return sent == 3
	})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := rt.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("forced shutdown took %v with 30 s transport timeouts", took)
	}
	if err := <-done; err == nil {
		t.Error("the cancelled fan-out reported success")
	}
	drained := make(chan struct{})
	go func() {
		rt.scatterWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(time.Second):
		t.Fatal("scatter goroutines still running after Shutdown returned")
	}
}

// TestMergedResponseTooLarge: two shards' answers fit a frame each and
// their merge does not; the router refuses in-band, as a shard would, on
// a connection that stays usable, and counts a failure.
func TestMergedResponseTooLarge(t *testing.T) {
	half := make([]wire.Item, 250_000) // 41 bytes an item: 10 MB a shard
	for i := range half {
		half[i] = wire.Item{Rect: geom.R2(0, 0, 1, 1), ID: uint64(i)}
	}
	big := func(_ context.Context, req *wire.Request) *wire.Response {
		if req.Op == wire.OpSearch {
			return &wire.Response{Status: wire.StatusOK, Op: req.Op, Items: half}
		}
		return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: 7}
	}
	m := stripes(startStub(t, big).addr, startStub(t, big).addr)
	var logged atomic.Int64
	rt, cl := startRouter(t, Config{Map: m, Logf: func(string, ...any) { logged.Add(1) }})
	cl.SetRequestTimeout(20 * time.Second)

	_, err := cl.Search(window(m, 0, 1))
	if err == nil {
		t.Fatal("a 20 MB merge was delivered")
	}
	for _, want := range []string{"500000 items", "16777216 bytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("client error %q does not name %q", err, want)
		}
	}
	if items, err := cl.Search(window(m, 0, 0)); err != nil || len(items) != len(half) {
		t.Fatalf("one shard's answer through the router = %d items, %v", len(items), err)
	}
	if n, err := cl.Count(window(m, 0, 1)); err != nil || n != 14 {
		t.Fatalf("follow-up count = %d, %v; want 14", n, err)
	}
	var metrics bytes.Buffer
	if err := rt.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strrouter_failed_total 1\n", "strrouter_completed_total 2\n"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if logged.Load() != 1 {
		t.Errorf("%d log lines, want 1", logged.Load())
	}
}

// TestShortBatchAnswerIsAFailure: a backend that answers a 16-window batch
// with 15 lists would leave one window without its matches and nobody the
// wiser. The client refuses the answer and drops the connection, as for
// an op mismatch; the router counts a failed backend call, has no other
// replica and answers StatusUnavailable in-band; the next request gets
// through on a fresh connection.
func TestShortBatchAnswerIsAFailure(t *testing.T) {
	short := func(_ context.Context, req *wire.Request) *wire.Response {
		if req.Op == wire.OpBatch {
			return &wire.Response{Status: wire.StatusOK, Op: req.Op, Batch: make([][]wire.Item, len(req.Batch)-1)}
		}
		return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: 7}
	}
	s := startStub(t, short)
	m := stripes(s.addr)
	batch := &wire.Request{Op: wire.OpBatch, Batch: make([]geom.Rect, 16)}
	for i := range batch.Batch {
		batch.Batch[i] = window(m, 0, 0)
	}

	direct := server.Dial(s.addr)
	defer direct.Close()
	if resp, err := direct.Do(batch); err == nil || !strings.Contains(err.Error(), "15 result lists for a batch of 16 windows") {
		t.Fatalf("15 lists for 16 windows: %+v, %v; want an error naming both counts", resp, err)
	}
	if n, err := direct.Count(window(m, 0, 0)); err != nil || n != 7 {
		t.Fatalf("count after a refused answer = %d, %v; want 7", n, err)
	}

	rt, cl := startRouter(t, Config{Map: m})
	resp, err := cl.Do(batch)
	if err != nil || resp.Status != wire.StatusUnavailable {
		t.Fatalf("routed short batch = %+v, %v; want StatusUnavailable", resp, err)
	}
	if st := rt.BackendStats()[0]; st.Errors != 1 {
		t.Fatalf("backend errors = %d, want 1 failed call", st.Errors)
	}
	if n, err := cl.Count(window(m, 0, 0)); err != nil || n != 7 {
		t.Fatalf("routed count after it = %d, %v; want 7", n, err)
	}
}
