package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"strtree/internal/server/wire"
)

// flakyListener accepts one connection, then parks the accept loop until
// broken closes and fails it for good — a listener dying under a server
// that still has a request running.
type flakyListener struct {
	net.Listener
	accepted atomic.Bool
	broken   chan struct{}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.accepted.Swap(true) {
		<-l.broken
		return nil, errors.New("listener broke")
	}
	return l.Listener.Accept()
}

// TestRunDrainsBeforeCleanupOnAcceptError is the regression for
// strserve closing its tree under live handlers: when Serve dies with a
// fatal accept error while a request is executing, Run must get the
// handler out before it calls cleanup.
func TestRunDrainsBeforeCleanupOnAcceptError(t *testing.T) {
	p := newParked()
	var handlerDone atomic.Bool
	f := NewFrame(FrameConfig{Name: "stub"}, func(ctx context.Context, req *wire.Request) *wire.Response {
		defer handlerDone.Store(true)
		return p.handle(ctx, req)
	})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: inner, broken: make(chan struct{})}

	cleanups, underHandler := 0, false
	runDone := make(chan error, 1)
	go func() {
		runDone <- Run(context.Background(), f, ln, RunConfig{Name: "stub", Out: &bytes.Buffer{}}, func() error {
			cleanups++
			underHandler = !handlerDone.Load()
			return nil
		})
	}()

	cl := dial(t, inner.Addr().String())
	reqDone := make(chan error, 1)
	go func() {
		_, err := cl.Count(unit)
		reqDone <- err
	}()
	<-p.entered

	close(ln.broken)
	// Run is now draining on its short bound; it must still be waiting
	// for the parked handler.
	select {
	case err := <-runDone:
		t.Fatalf("Run returned %v with the handler still parked", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(p.gate)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request lost to the accept error: %v", err)
	}
	if err := <-runDone; err == nil || !strings.Contains(err.Error(), "listener broke") {
		t.Fatalf("Run = %v, want the accept error", err)
	}
	if cleanups != 1 || underHandler {
		t.Fatalf("cleanup ran %d times, under a live handler: %v; want once, after it", cleanups, underHandler)
	}
	if !f.Draining() {
		t.Error("frame not shut down after Run returned")
	}
}

// TestRunAdminListenFailure: an admin address that cannot be bound must
// not leave the service half-started — the listener closes, the frame's
// root context is cancelled, cleanup runs.
func TestRunAdminListenFailure(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = taken.Close() }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFrame(FrameConfig{Name: "stub"}, nil)
	cleaned := false
	err = Run(context.Background(), f, ln, RunConfig{
		Name: "stub", Out: &bytes.Buffer{}, AdminAddr: taken.Addr().String(),
	}, func() error { cleaned = true; return nil })
	if err == nil || !strings.Contains(err.Error(), "admin listen") {
		t.Fatalf("Run = %v, want an admin listen error", err)
	}
	select {
	case <-f.Done():
	default:
		t.Error("frame's root context still live")
	}
	if _, err := ln.Accept(); err == nil {
		t.Error("query listener left open")
	}
	if !cleaned {
		t.Error("cleanup not run")
	}
}

// syncBuffer is a bytes.Buffer the test can read while Run writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunSignalDrain sends the process a real SIGTERM and follows the
// readiness-first sequence from outside: /healthz 503 inside the grace
// window while requests are still served, then a clean drain, the admin
// endpoint gone and cleanup run.
func TestRunSignalDrain(t *testing.T) {
	f := NewFrame(FrameConfig{Name: "stub"}, func(_ context.Context, req *wire.Request) *wire.Response {
		return answer(req)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := &syncBuffer{}
	cleaned := make(chan struct{})
	runDone := make(chan error, 1)
	go func() {
		runDone <- Run(context.Background(), f, ln, RunConfig{
			Name: "stub", Out: out, AdminAddr: "127.0.0.1:0",
			DrainGrace: 500 * time.Millisecond, DrainTimeout: 5 * time.Second,
		}, func() error { close(cleaned); return nil })
	}()
	// Serve owning the listener means Run is past signal.Notify: from here
	// a SIGTERM is Run's to handle, not the test binary's death.
	waitFor(t, "Run to serve", func() bool { return f.Addr() != nil })
	_, adminURL, ok := strings.Cut(strings.TrimSpace(out.String()), "stub: admin endpoint on ")
	if !ok {
		t.Fatalf("no admin endpoint line in %q", out.String())
	}
	healthz := func() int {
		status, _, err := httpGet(adminURL + "/healthz")
		if err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		return status
	}
	if got := healthz(); got != http.StatusOK {
		t.Fatalf("/healthz while serving = %d, want 200", got)
	}
	cl := dial(t, ln.Addr().String())
	if _, err := cl.Count(unit); err != nil {
		t.Fatal(err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "/healthz to flip inside the grace window", func() bool {
		return healthz() == http.StatusServiceUnavailable
	})
	if f.Draining() {
		t.Fatal("drain began before the grace period ended")
	}
	if _, err := cl.Count(unit); err != nil {
		t.Fatalf("request inside the grace window: %v", err)
	}

	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v, want a clean drain", err)
	}
	<-cleaned
	if !strings.Contains(out.String(), "stub: terminated: draining (up to 5s)\n") ||
		!strings.HasSuffix(out.String(), "stub: drained cleanly\n") {
		t.Errorf("lifecycle lines:\n%s", out.String())
	}
	if _, _, err := httpGet(adminURL + "/healthz"); err == nil {
		t.Error("admin endpoint still up after Run returned")
	}
}
