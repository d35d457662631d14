package server

import (
	"bytes"
	"context"
	"errors"
	"net"
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

// TestServerExecutionErrors pins how the handler turns the executor's
// errors into in-band answers: a query that outlives its deadline (every
// disk read delayed past it) answers StatusDeadline within one node
// visit, a storage failure answers StatusInternal, and each lands in its
// per-op counter next to the frame's outcome counter.
func TestServerExecutionErrors(t *testing.T) {
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
	logs := &logBuf{}
	srv, addr := startServer(t, tree, Config{Logf: logs.logf})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()

	fp.FailReads(func(storage.PageID) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	cl.SetRequestTimeout(time.Millisecond)
	if _, err := cl.Count(geom.R2(0, 0, 1, 1)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	waitFor(t, "timeout counters", func() bool {
		return srv.timedOut.Load() == 1 && srv.deadlineOp[wire.OpCount-1].Load() == 1
	})

	fp.FailReads(func(storage.PageID) error { return errors.New("disk on fire") })
	cl.SetRequestTimeout(0)
	if _, err := cl.Count(geom.R2(0, 0, 1, 1)); err == nil || errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want the storage failure", err)
	}
	waitFor(t, "failure counters", func() bool {
		return srv.failed.Load() == 1 && srv.errOp[wire.OpCount-1].Load() == 1
	})
	if !logs.contains("strserve: count request failed") {
		t.Errorf("storage failure not logged: %q", logs.all())
	}
	fp.FailReads(nil)
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
