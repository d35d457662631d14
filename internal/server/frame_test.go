package server

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

// The frame's lifecycle tests run against stub handlers: what they pin —
// admission, deadlines, drain, framing — is the same whatever a request
// means, so strserve and strrouter are both covered by them.

// answer is the stub reply to any request: OK, count 7.
func answer(req *wire.Request) *wire.Response {
	return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: 7}
}

// parked is a stub handler that announces each request on entered, then
// blocks until gate closes (answering OK) or the request context ends
// (answering StatusDeadline, as a cancellable executor would).
type parked struct {
	entered chan struct{}
	gate    chan struct{}
}

func newParked() *parked {
	return &parked{entered: make(chan struct{}, 16), gate: make(chan struct{})}
}

func (p *parked) handle(ctx context.Context, req *wire.Request) *wire.Response {
	p.entered <- struct{}{}
	select {
	case <-p.gate:
		return answer(req)
	case <-ctx.Done():
		return &wire.Response{Status: wire.StatusDeadline, Op: req.Op, Err: ctx.Err().Error()}
	}
}

// startFrame serves h on a loopback listener; the cleanup drains it.
func startFrame(t *testing.T, cfg FrameConfig, h Handler) (*Frame, string) {
	t.Helper()
	cfg.Name = "stub"
	f := NewFrame(cfg, h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- f.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if !f.Draining() {
			if err := f.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return f, ln.Addr().String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	cl := Dial(addr)
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

var unit = geom.R2(0, 0, 1, 1)

// TestFrameOverload parks one request in the single admission slot and
// checks the next fast-fails with ErrOverloaded — and that the rejected
// connection survives.
func TestFrameOverload(t *testing.T) {
	p := newParked()
	f, addr := startFrame(t, FrameConfig{MaxInFlight: 1}, p.handle)

	slow, fast := dial(t, addr), dial(t, addr)
	slowDone := make(chan error, 1)
	go func() {
		_, err := slow.Count(unit)
		slowDone <- err
	}()
	<-p.entered

	if _, err := fast.Count(unit); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request err = %v, want ErrOverloaded", err)
	}
	if got := f.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(p.gate)
	if err := <-slowDone; err != nil {
		t.Fatalf("parked request failed after gate opened: %v", err)
	}
	// The slot comes back after the parked client has its answer, so the
	// answer alone does not order the retry behind the release.
	waitFor(t, "the parked request's slot to be released", func() bool {
		return f.inFlight.Load() == 0
	})
	if _, err := fast.Count(unit); err != nil {
		t.Fatalf("retry on the rejected connection: %v", err)
	}
}

// TestFrameDeadline checks a request's own timeout reaches the handler
// as a context deadline, and that timeoutFor applies default and cap.
func TestFrameDeadline(t *testing.T) {
	p := newParked() // never opened: only the deadline ends the request
	f, addr := startFrame(t, FrameConfig{DefaultTimeout: time.Second, MaxTimeout: 3 * time.Second}, p.handle)
	cl := dial(t, addr)
	cl.SetRequestTimeout(5 * time.Millisecond)
	if _, err := cl.Count(unit); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	waitFor(t, "timeout counter", func() bool { return f.timedOut.Load() == 1 })

	for _, tc := range []struct {
		millis uint32
		want   time.Duration
	}{
		{0, time.Second},            // none of its own: the default
		{20, 20 * time.Millisecond}, // its own
		{60_000, 3 * time.Second},   // capped
	} {
		if got := f.timeoutFor(&wire.Request{TimeoutMillis: tc.millis}); got != tc.want {
			t.Errorf("timeoutFor(%dms) = %v, want %v", tc.millis, got, tc.want)
		}
	}
}

// TestFrameDrain is the drain-semantics proof: with a request parked in
// the handler, Shutdown must refuse new connections and new requests
// while letting the parked one finish and deliver its response.
func TestFrameDrain(t *testing.T) {
	p := newParked()
	f, addr := startFrame(t, FrameConfig{}, p.handle)

	// An idle connection opened before the drain begins: one request on
	// it, let through the gate alone, establishes it.
	idle := dial(t, addr)
	idleDone := make(chan error, 1)
	go func() {
		_, err := idle.Count(unit)
		idleDone <- err
	}()
	<-p.entered
	p.gate <- struct{}{}
	if err := <-idleDone; err != nil {
		t.Fatal(err)
	}

	slow := dial(t, addr)
	type result struct {
		n   uint64
		err error
	}
	slowDone := make(chan result, 1)
	go func() {
		n, err := slow.Count(unit)
		slowDone <- result{n, err}
	}()
	<-p.entered

	// Begin the drain; it must block on the parked request.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- f.Shutdown(ctx)
	}()
	waitFor(t, "drain to begin", f.Draining)
	if f.Ready() {
		t.Error("Ready() during drain")
	}

	// New connections are refused: the listener is closed.
	waitFor(t, "listener to close", func() bool {
		conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return true
		}
		// Connection races ahead of the close on some kernels: a request
		// on it must still be refused or the socket dropped.
		_ = conn.Close()
		return false
	})

	// The pre-existing idle connection gets an in-band draining refusal.
	if _, err := idle.Count(unit); !errors.Is(err, ErrDraining) {
		t.Fatalf("request during drain: err = %v, want ErrDraining", err)
	}

	// Shutdown is still waiting on the parked request.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Open the gate: the parked request completes and its response is
	// delivered before the connection closes.
	close(p.gate)
	if res := <-slowDone; res.err != nil || res.n != 7 {
		t.Fatalf("in-flight request during drain = %d, %v; want 7, nil", res.n, res.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	select {
	case <-f.Done():
	default:
		t.Error("Done() still open after Shutdown returned")
	}
}

// TestFrameDrainDeadline forces the drain deadline with a request that
// never finishes on its own: Shutdown must cancel its context and return
// ctx's error instead of hanging.
func TestFrameDrainDeadline(t *testing.T) {
	p := newParked()
	f, addr := startFrame(t, FrameConfig{}, p.handle)
	cl := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Count(unit)
		done <- err
	}()
	<-p.entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := f.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err = %v, want DeadlineExceeded", err)
	}
	if err := <-done; err == nil {
		t.Fatal("cancelled in-flight request reported success")
	}
	if got := f.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight after forced drain = %d, want 0", got)
	}
}

// writeFrame frames payload as every writer does and writes it in one call.
func writeFrame(w io.Writer, payload []byte) error {
	frame, err := wire.EndFrame(append(wire.BeginFrame(nil), payload...))
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// TestFrameBadFrame sends garbage and checks for an in-band bad-request
// answer followed by connection close, without the handler being asked.
func TestFrameBadFrame(t *testing.T) {
	_, addr := startFrame(t, FrameConfig{}, func(context.Context, *wire.Request) *wire.Response {
		t.Error("handler called for a malformed frame")
		return nil
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := writeFrame(conn, []byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ParseResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("status = %v, want bad request", resp.Status)
	}
	// The frame closes the connection after a protocol violation.
	if _, err := wire.ReadFrame(conn, nil); err == nil {
		t.Fatal("connection stayed open after a malformed frame")
	}
}

// TestFrameLifecycleMisuse pins the calls that come out of order: a
// second Serve, a second Shutdown, and Serve after Shutdown.
func TestFrameLifecycleMisuse(t *testing.T) {
	f, _ := startFrame(t, FrameConfig{}, func(_ context.Context, req *wire.Request) *wire.Response {
		return answer(req)
	})
	waitFor(t, "Serve to own its listener", func() bool { return f.Addr() != nil })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	if err := f.Serve(ln); !errors.Is(err, ErrAlreadyServing) {
		t.Fatalf("second Serve = %v, want ErrAlreadyServing", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := f.Shutdown(ctx); !errors.Is(err, ErrAlreadyShutDown) {
		t.Fatalf("second Shutdown = %v, want ErrAlreadyShutDown", err)
	}

	// A frame shut down before it ever served takes the listener it is
	// handed and closes it.
	idle := NewFrame(FrameConfig{Name: "stub"}, nil)
	if idle.Addr() != nil {
		t.Error("Addr() before Serve is not nil")
	}
	if err := idle.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}
	if err := idle.Serve(ln); err != nil {
		t.Fatalf("Serve after Shutdown = %v, want nil", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Serve after Shutdown left the listener open")
	}
}

// TestFrameOutcomes pins the one rule for each outcome counter and for
// the failure log, whatever handler produced the status.
func TestFrameOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		status                      wire.Status
		completed, timedOut, failed uint64
		logged                      string // substring of the one expected log line
		wantErr                     error  // what the client sees
		dropped                     bool   // the connection closes instead of answering
	}{
		{name: "ok", status: wire.StatusOK, completed: 1},
		{name: "deadline", status: wire.StatusDeadline, timedOut: 1, wantErr: ErrDeadline},
		{name: "internal", status: wire.StatusInternal, failed: 1,
			logged: "stub: count request failed: boom"},
		// Answered in-band, but neither completed nor the frame's failure:
		// a read-only strserve refusing an insert, a backend's refusal
		// forwarded by the router, a shard with no healthy replica.
		{name: "bad request", status: wire.StatusBadRequest, wantErr: ErrBadRequest},
		{name: "unavailable", status: wire.StatusUnavailable, wantErr: ErrUnavailable},
		// A response that cannot be encoded is a handler bug: the client
		// loses the connection and the operator gets a line.
		{name: "unencodable", status: wire.Status(99), dropped: true,
			logged: "stub: encode response: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logs := &logBuf{}
			f, addr := startFrame(t, FrameConfig{Logf: logs.logf}, func(_ context.Context, req *wire.Request) *wire.Response {
				return &wire.Response{Status: tc.status, Op: req.Op, Err: "boom"}
			})
			cl := dial(t, addr)
			cl.SetTransportTimeouts(time.Second, time.Second)
			_, err := cl.Count(unit)
			switch {
			case tc.dropped:
				if err == nil {
					t.Fatal("unencodable response reached the client")
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("client err = %v, want %v", err, tc.wantErr)
				}
			case tc.status == wire.StatusInternal:
				if err == nil || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("client err = %v, want the handler's message", err)
				}
			case err != nil:
				t.Fatal(err)
			}
			waitFor(t, "the slot to be released", func() bool { return f.inFlight.Load() == 0 })
			if c, d, x := f.completed.Load(), f.timedOut.Load(), f.failed.Load(); c != tc.completed || d != tc.timedOut || x != tc.failed {
				t.Errorf("completed/timedout/failed = %d/%d/%d, want %d/%d/%d",
					c, d, x, tc.completed, tc.timedOut, tc.failed)
			}
			if f.accepted.Load() != 1 || f.latAll.Summarize().Count != 1 {
				t.Errorf("accepted = %d, latency observations = %d; want 1, 1",
					f.accepted.Load(), f.latAll.Summarize().Count)
			}
			if tc.logged == "" {
				if got := logs.all(); len(got) != 0 {
					t.Errorf("log = %q, want none", got)
				}
			} else if len(logs.all()) != 1 || !logs.contains(tc.logged) {
				t.Errorf("log = %q, want one line containing %q", logs.all(), tc.logged)
			}
		})
	}
}
