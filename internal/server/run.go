package server

// This file is the run loop strserve and strrouter share: serve until a
// termination signal, then the readiness-first drain.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Service is what Run drives: a Frame, or a type that embeds one and
// extends Shutdown (the router closes its backend pools after the drain).
type Service interface {
	Serve(ln net.Listener) error
	MarkNotReady()
	Shutdown(ctx context.Context) error
	AdminHandler() http.Handler
	Logf(format string, args ...any)
}

// RunConfig is the process-level half of serving: what the binaries'
// -admin, -drain-grace and -drain-timeout flags set.
type RunConfig struct {
	// Name prefixes the lifecycle lines written to Out.
	Name string
	Out  io.Writer
	// AdminAddr binds the admin HTTP endpoint; empty disables it.
	AdminAddr string
	// DrainGrace is the delay between flipping /healthz to 503 and
	// starting the drain; DrainTimeout bounds the drain itself.
	DrainGrace, DrainTimeout time.Duration
}

// abortDrain bounds the drain on the paths where nobody asked for one:
// the listener failed, so what is left is getting the handlers out.
const abortDrain = 2 * time.Second

// Run serves svc on ln until SIGINT or SIGTERM, then drains: /healthz
// flips to 503, DrainGrace lets load balancers route away, Shutdown runs
// under DrainTimeout, and only then cleanup (closing what the handler
// serves; may be nil). A fatal accept error or an admin address that
// cannot be bound takes the same exit with a short drain bound, so
// cleanup never runs under a live handler. ctx parents the drain
// deadlines.
func Run(ctx context.Context, svc Service, ln net.Listener, cfg RunConfig, cleanup func() error) error {
	err := serveUntilSignal(ctx, svc, ln, cfg)
	if cleanup != nil {
		err = errors.Join(err, cleanup())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "%s: drained cleanly\n", cfg.Name)
	return nil
}

// serveUntilSignal is Run up to the cleanup: it returns with svc shut
// down and the admin endpoint closed.
func serveUntilSignal(ctx context.Context, svc Service, ln net.Listener, cfg RunConfig) error {
	abort := func() {
		ctx, cancel := context.WithTimeout(ctx, abortDrain)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}

	adminURL, stopAdmin, err := serveAdmin(svc, cfg.AdminAddr)
	if err != nil {
		_ = ln.Close()
		abort()
		return err
	}
	// The admin endpoint outlives the drain — it must answer 503 and serve
	// final metrics while requests finish — and closes before cleanup
	// takes away what its series sample.
	defer stopAdmin()
	if adminURL != "" {
		fmt.Fprintf(cfg.Out, "%s: admin endpoint on %s\n", cfg.Name, adminURL)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	serveErr := make(chan error, 1)
	go func() { serveErr <- svc.Serve(ln) }()

	select {
	case sig := <-sigCh:
		if cfg.DrainGrace > 0 {
			// Readiness-first shutdown: flip /healthz to 503, keep serving
			// for the grace period so routers drain us, then stop.
			fmt.Fprintf(cfg.Out, "%s: %v: not ready; draining in %v\n", cfg.Name, sig, cfg.DrainGrace)
			svc.MarkNotReady()
			time.Sleep(cfg.DrainGrace)
		}
		fmt.Fprintf(cfg.Out, "%s: %v: draining (up to %v)\n", cfg.Name, sig, cfg.DrainTimeout)
		ctx, cancel := context.WithTimeout(ctx, cfg.DrainTimeout)
		defer cancel()
		drainErr := svc.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			return err
		}
		if drainErr != nil {
			return fmt.Errorf("drain: %w", drainErr)
		}
		return nil
	case err := <-serveErr:
		abort()
		return err
	}
}

// serveAdmin serves svc's admin handler on addr, returning its base URL
// and what closes it; an empty addr serves nothing.
func serveAdmin(svc Service, addr string) (url string, stop func(), err error) {
	if addr == "" {
		return "", func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", func() {}, fmt.Errorf("admin listen: %w", err)
	}
	srv := &http.Server{Handler: svc.AdminHandler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			svc.Logf("admin: %v", err)
		}
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}
