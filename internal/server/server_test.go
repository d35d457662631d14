package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/server/wire"
	"strtree/internal/storage"
)

// buildTree packs n uniform squares into an in-memory tree.
func buildTree(t *testing.T, n int) *strtree.Tree {
	t.Helper()
	tree, err := strtree.New(strtree.Options{Capacity: 16, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(uniformItems(n, 42), strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	return tree
}

// startServer serves tree on a loopback listener and returns the server,
// its address, and a cleanup that drains it.
func startServer(t *testing.T, tree *strtree.Tree, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(tree, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if !srv.Draining() {
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestServerOps cross-checks every op against direct tree calls through
// a real client over a real socket.
func TestServerOps(t *testing.T) {
	tree := buildTree(t, 500)
	defer func() { _ = tree.Close() }()
	_, addr := startServer(t, tree, Config{})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()

	q := geom.R2(0.2, 0.2, 0.6, 0.6)
	wantN, err := tree.Count(q)
	if err != nil {
		t.Fatal(err)
	}

	items, err := cl.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != wantN {
		t.Fatalf("Search returned %d items, want %d", len(items), wantN)
	}

	n, err := cl.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != wantN {
		t.Fatalf("Count = %d, want %d", n, wantN)
	}

	p := geom.Pt2(0.5, 0.5)
	wantPt, err := tree.All(strtree.PointRect(p))
	if err != nil {
		t.Fatal(err)
	}
	ptItems, err := cl.SearchPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ptItems) != len(wantPt) {
		t.Fatalf("SearchPoint returned %d items, want %d", len(ptItems), len(wantPt))
	}

	wantNb, wantD, err := tree.NearestK(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	nbs, err := cl.Nearest(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != len(wantNb) {
		t.Fatalf("Nearest returned %d, want %d", len(nbs), len(wantNb))
	}
	for i := range nbs {
		if nbs[i].Item.ID != wantNb[i].ID || nbs[i].Dist != wantD[i] {
			t.Fatalf("neighbor %d: (%d, %v), want (%d, %v)",
				i, nbs[i].Item.ID, nbs[i].Dist, wantNb[i].ID, wantD[i])
		}
	}

	qs := []geom.Rect{geom.R2(0, 0, 0.3, 0.3), geom.R2(0.7, 0.7, 1, 1), q}
	wantBatch, err := tree.SearchBatch(qs, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cl.Batch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(wantBatch) {
		t.Fatalf("batch has %d results, want %d", len(batch), len(wantBatch))
	}
	for i := range batch {
		if len(batch[i]) != len(wantBatch[i]) {
			t.Fatalf("batch query %d: %d matches, want %d", i, len(batch[i]), len(wantBatch[i]))
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 5 query requests completed so far (Stats itself is in flight).
	if st.Completed != 5 || st.Accepted != 6 {
		t.Fatalf("stats counters: completed=%d accepted=%d", st.Completed, st.Accepted)
	}
	if st.Latency.Count != 5 || st.PerOp[wire.OpSearch-1].Count != 1 {
		t.Fatalf("latency digests: all=%d search=%d",
			st.Latency.Count, st.PerOp[wire.OpSearch-1].Count)
	}
	if st.LogicalReads == 0 {
		t.Fatal("stats carry no buffer counters")
	}
}

// gatedTree builds a tree on a faulty pager whose disk reads park on
// gate until it is closed. The hook is armed only after the build and a
// DropCaches, so queries are guaranteed to hit it.
func gatedTree(t *testing.T, gate chan struct{}) *strtree.Tree {
	t.Helper()
	fp := storage.NewFaultyPager(storage.NewMemPager(4096))
	tree, err := strtree.NewOnPager(fp, strtree.Options{Capacity: 16, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(uniformItems(500, 42), strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := tree.DropCaches(); err != nil {
		t.Fatal(err)
	}
	fp.FailReads(func(storage.PageID) error {
		<-gate
		return nil
	})
	return tree
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServerOverload parks one slow query in the single admission slot
// and checks the next request fast-fails with ErrOverloaded — and that
// the connection survives the rejection.
func TestServerOverload(t *testing.T) {
	gate := make(chan struct{})
	tree := gatedTree(t, gate)
	defer func() { _ = tree.Close() }()
	srv, addr := startServer(t, tree, Config{MaxInFlight: 1})

	slow := Dial(addr)
	defer func() { _ = slow.Close() }()
	slowDone := make(chan error, 1)
	go func() {
		_, err := slow.Count(geom.R2(0, 0, 1, 1))
		slowDone <- err
	}()
	waitFor(t, "slow query to occupy the slot", func() bool {
		return srv.inFlight.Load() == 1
	})

	fast := Dial(addr)
	defer func() { _ = fast.Close() }()
	if _, err := fast.Count(geom.R2(0, 0, 1, 1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second query err = %v, want ErrOverloaded", err)
	}
	if got := srv.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatalf("parked query failed after gate opened: %v", err)
	}
	// The rejected client's connection must still work — once the server
	// has given the slot back, which it does after answering the parked
	// client, so the answer alone does not order the two.
	waitFor(t, "the parked query's slot to be released", func() bool {
		return srv.inFlight.Load() == 0
	})
	if _, err := fast.Count(geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatalf("retry on same connection: %v", err)
	}
}

// TestServerDeadline delays every disk read past the request deadline
// and checks the server answers StatusDeadline within one node visit.
func TestServerDeadline(t *testing.T) {
	fp := storage.NewFaultyPager(storage.NewMemPager(4096))
	tree, err := strtree.NewOnPager(fp, strtree.Options{Capacity: 16, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tree.Close() }()
	if err := tree.BulkLoad(uniformItems(500, 42), strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := tree.DropCaches(); err != nil {
		t.Fatal(err)
	}
	fp.FailReads(func(storage.PageID) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})

	srv, addr := startServer(t, tree, Config{})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()
	cl.SetRequestTimeout(time.Millisecond)
	if _, err := cl.Count(geom.R2(0, 0, 1, 1)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	waitFor(t, "timeout counter", func() bool { return srv.timedOut.Load() == 1 })
}

// TestServerDrain is the drain-semantics proof: with a query parked on
// faulty storage, Shutdown must refuse new connections and new requests
// while letting the parked query finish and deliver its response.
func TestServerDrain(t *testing.T) {
	gate := make(chan struct{})
	tree := gatedTree(t, gate)
	defer func() { _ = tree.Close() }()
	srv, addr := startServer(t, tree, Config{})

	// An idle connection opened before the drain begins.
	idle := Dial(addr)
	defer func() { _ = idle.Close() }()
	if _, err := idle.Stats(); err != nil {
		t.Fatal(err)
	}

	// Park a query on the storage gate.
	slow := Dial(addr)
	defer func() { _ = slow.Close() }()
	type result struct {
		n   uint64
		err error
	}
	slowDone := make(chan result, 1)
	go func() {
		n, err := slow.Count(geom.R2(0, 0, 1, 1))
		slowDone <- result{n, err}
	}()
	waitFor(t, "slow query to start", func() bool { return srv.inFlight.Load() == 1 })

	// Begin the drain; it must block on the parked query.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	waitFor(t, "drain to begin", srv.Draining)

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
	if _, err := idle.Stats(); !errors.Is(err, ErrDraining) {
		t.Fatalf("request during drain: err = %v, want ErrDraining", err)
	}

	// Shutdown is still waiting on the parked query.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned %v with a query still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Release the storage gate: the parked query completes and its
	// response is delivered before the connection closes.
	close(gate)
	res := <-slowDone
	if res.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", res.err)
	}
	if res.n != 500 {
		t.Fatalf("in-flight query returned %d matches, want 500", res.n)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
}

// TestServerDrainDeadline forces the drain deadline with a query that
// never unparks on its own: Shutdown must cancel it and return ctx's
// error instead of hanging.
func TestServerDrainDeadline(t *testing.T) {
	gate := make(chan struct{})
	fp := storage.NewFaultyPager(storage.NewMemPager(4096))
	tree, err := strtree.NewOnPager(fp, strtree.Options{Capacity: 16, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tree.Close() }()
	if err := tree.BulkLoad(uniformItems(500, 42), strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := tree.DropCaches(); err != nil {
		t.Fatal(err)
	}
	// Every read waits on the gate; the query re-parks on each node, so
	// without cancellation the drain would never finish. One release per
	// read lets exactly the in-progress read complete.
	var reads atomic.Int64
	fp.FailReads(func(storage.PageID) error {
		reads.Add(1)
		<-gate
		return nil
	})

	srv, addr := startServer(t, tree, Config{})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Count(geom.R2(0, 0, 1, 1))
		done <- err
	}()
	waitFor(t, "query to park", func() bool { return reads.Load() >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	// Unpark the read so the cancelled traversal can observe its context.
	close(gate)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err = %v, want DeadlineExceeded", err)
	}
	if err := <-done; err == nil {
		t.Fatal("cancelled in-flight query reported success")
	}
	// The unparked handler may still be unwinding its traversal; wait for
	// it to release its slot before the deferred tree.Close.
	waitFor(t, "handler to unwind", func() bool { return srv.inFlight.Load() == 0 })
}

// TestServerBadRequest sends garbage and checks for an in-band
// bad-request answer followed by connection close.
func TestServerBadRequest(t *testing.T) {
	tree := buildTree(t, 100)
	defer func() { _ = tree.Close() }()
	_, addr := startServer(t, tree, Config{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := wire.WriteFrame(conn, []byte{0xFF, 0xFF, 0xFF}); err != nil {
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
	// The server closes the connection after a protocol violation.
	if _, err := wire.ReadFrame(conn, nil); err == nil {
		t.Fatal("connection stayed open after bad request")
	}
}

// TestSelftest smoke-runs the in-process harness with small parameters.
func TestSelftest(t *testing.T) {
	var out bytes.Buffer
	err := Selftest(&out, SelftestConfig{
		Clients: 4, QueriesPerClient: 25, Size: 2000, Seed: 1,
	})
	if err != nil {
		t.Fatalf("selftest: %v\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("qps")) {
		t.Fatalf("report missing throughput:\n%s", out.String())
	}
}
