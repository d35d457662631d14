package router

// This file is the router's view of one backend server: a bounded pool
// of protocol clients, passive health tracking (consecutive transport
// failures eject the backend from rotation), and the counters the admin
// endpoint exposes per backend. Active re-probing of ejected backends
// lives in probe.go.

import (
	"sync/atomic"
	"time"

	"strtree/internal/server"
)

// backend is one server address the router fans out to. A shard with
// replicas maps to several backends; the same address shared by several
// shards maps to one backend (pool and health are per address).
type backend struct {
	addr string

	// pool holds the backend's protocol clients; its capacity is the
	// per-backend concurrency bound. A shard call takes a client for one
	// round trip and puts it back — at the request's deadline at the
	// latest, whatever the backend does — so at most cap(pool) requests
	// are in flight to this backend at once and the rest wait (or give
	// up when the request deadline expires first).
	pool chan *server.Client

	// probe is the health prober's dedicated client, used only by the
	// single probe goroutine — never by request traffic, so a probe can
	// not be starved by a busy pool.
	probe *server.Client

	// consecFails counts transport failures since the last success;
	// crossing the ejection threshold flips ejected.
	consecFails atomic.Uint32
	// ejected marks the backend out of rotation: scatter skips it until
	// a probe (or a straggling in-flight success) brings it back.
	ejected atomic.Bool

	// Counters for the admin endpoint, all monotonic.
	requests  atomic.Uint64 // round trips attempted
	errors    atomic.Uint64 // transport failures and draining answers
	retries   atomic.Uint64 // round trips that were retries of another replica's failure
	ejections atomic.Uint64 // times the backend crossed the failure threshold
	restores  atomic.Uint64 // times a probe or late success brought it back
}

// newBackend builds a backend with a pool of conc clients, each with the
// given transport bounds so a hung peer costs bounded time. The prober
// has no request deadline to end its round trip early, so its transport
// bound is the budget its ping asks the backend for (dial) twice over: a
// backend that hangs holds up the probe loop, and a Shutdown waiting for
// it, that long and no longer.
func newBackend(addr string, conc int, dial, io time.Duration) *backend {
	b := &backend{addr: addr, pool: make(chan *server.Client, conc)}
	for i := 0; i < conc; i++ {
		c := server.Dial(addr)
		c.SetTransportTimeouts(dial, io)
		b.pool <- c
	}
	b.probe = server.Dial(addr)
	b.probe.SetTransportTimeouts(dial, 2*dial)
	return b
}

// healthy reports whether the backend is in rotation.
func (b *backend) healthy() bool { return !b.ejected.Load() }

// noteSuccess resets the failure streak and restores an ejected backend
// — normally the probe's doing, but a straggling in-flight request that
// succeeds after ejection counts too.
func (b *backend) noteSuccess() {
	b.consecFails.Store(0)
	if b.ejected.Swap(false) {
		b.restores.Add(1)
	}
}

// noteFailure records one transport failure and ejects the backend once
// the streak reaches threshold, reporting whether this call ejected it.
func (b *backend) noteFailure(threshold int) bool {
	n := b.consecFails.Add(1)
	if int(n) >= threshold && !b.ejected.Swap(true) {
		b.ejections.Add(1)
		return true
	}
	return false
}

// close drops every pooled connection and the probe's. Callers must have
// stopped traffic first (the pool drain blocks until all clients are
// back).
func (b *backend) close() {
	for i := 0; i < cap(b.pool); i++ {
		c := <-b.pool
		_ = c.Close()
	}
	_ = b.probe.Close()
}

// BackendStats is one backend's health and counter snapshot, exposed for
// the admin endpoint and TestRoutedTopology's pruning assertions.
type BackendStats struct {
	Addr      string
	Ejected   bool
	Requests  uint64
	Errors    uint64
	Retries   uint64
	Ejections uint64
	Restores  uint64
}

// stats snapshots the backend.
func (b *backend) stats() BackendStats {
	return BackendStats{
		Addr:      b.addr,
		Ejected:   b.ejected.Load(),
		Requests:  b.requests.Load(),
		Errors:    b.errors.Load(),
		Retries:   b.retries.Load(),
		Ejections: b.ejections.Load(),
		Restores:  b.restores.Load(),
	}
}
