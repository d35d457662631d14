package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
	"strtree/internal/server/wire"
)

// TestSelftest runs the full in-process topology proof: identity with
// the unsharded tree across all ops, pruning via backend counters, and
// the kill-one-backend failure path — including the admin smoke checks.
func TestSelftest(t *testing.T) {
	var out bytes.Buffer
	err := Selftest(&out, SelftestConfig{
		Shards:    3,
		Size:      4000,
		Queries:   40,
		Seed:      42,
		AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("selftest failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"identity:", "pruning:", "failure:", "ejections=", "drain:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("selftest report missing %q:\n%s", want, out.String())
		}
	}
}

// TestRouterEdges drives the running topology through the edges the
// selftest's randomized workload does not pin down: a query outside
// every shard (empty fan-out), a dimensionality mismatch, and a window
// spanning all shards.
func TestRouterEdges(t *testing.T) {
	items := selftestItems(500, 7)
	topo, err := buildTopology(items, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	cl := topo.client

	// Outside the data extent: no shard overlaps, empty OK answer with no
	// backend round trips.
	before := topo.router.BackendStats()
	n, err := cl.Count(geom.R2(5, 5, 6, 6))
	if err != nil || n != 0 {
		t.Fatalf("count outside extent = %d, %v; want 0, nil", n, err)
	}
	items2, err := cl.Search(geom.R2(5, 5, 6, 6))
	if err != nil || len(items2) != 0 {
		t.Fatalf("search outside extent = %v, %v", items2, err)
	}
	after := topo.router.BackendStats()
	for i := range after {
		if after[i].Requests != before[i].Requests {
			t.Fatalf("backend %d contacted for a query overlapping no shard", i)
		}
	}

	// Wrong dimensionality fails in-band as a bad request, before any
	// backend sees it.
	if _, err := cl.Count(geom.Rect{Min: geom.Point{0}, Max: geom.Point{1}}); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("1-d query against 2-d map: got %v, want ErrBadRequest", err)
	}
	// So does a mutation: the router serves the read path only.
	if _, err := cl.Insert(geom.R2(0, 0, 1, 1), 1); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("insert through the router: got %v, want ErrBadRequest", err)
	}
	// The connection survives both refusals.
	if _, err := cl.Count(geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatalf("count after dims rejection: %v", err)
	}

	// Full-extent window visits every shard and counts everything.
	full, err := cl.Count(geom.R2(0, 0, 1, 1))
	if err != nil || full != 500 {
		t.Fatalf("full-extent count = %d, %v; want 500", full, err)
	}
}

func TestNewRejectsBadMaps(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil map accepted")
	}
	items := selftestItems(100, 1)
	m, _, err := partitionItems(items, 2)
	if err != nil {
		t.Fatal(err)
	}
	// No addresses on shard 0.
	if _, err := New(Config{Map: m}); err == nil {
		t.Error("map without backend addresses accepted")
	}
}

// TestRouterAdminSurface exercises the admin handler directly: metrics
// exposition, the JSON stats mirror, and the readiness flip.
func TestRouterAdminSurface(t *testing.T) {
	items := selftestItems(300, 3)
	topo, err := buildTopology(items, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	if _, err := topo.client.Count(geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}

	h := topo.router.AdminHandler()
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"strrouter_completed_total", "strrouter_fanout_width_shards",
		"strrouter_backend_requests_total{backend=", "strrouter_healthy_backends 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get("/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	var stats struct {
		Percentiles string           `json:"percentiles"`
		Families    []map[string]any `json:"families"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/stats is not a JSON object: %v", err)
	}
	if stats.Percentiles != "upper-bound" {
		t.Errorf("/stats percentiles = %q, want %q (folded quantiles are upper bounds)", stats.Percentiles, "upper-bound")
	}
	if len(stats.Families) == 0 {
		t.Error("/stats families empty")
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz while serving = %d", code)
	}
	topo.router.MarkNotReady()
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("/healthz after MarkNotReady = %d", code)
	}
}

// TestRouterOverloadAndDrain drives a real Router's front through the
// methods it gets from the serving frame: with its one admission slot
// held by a fan-out parked on a stub backend, the next client request is
// refused as overloaded; a drain then refuses new requests in-band, lets
// the parked fan-out deliver its answer, and leaves a second Shutdown
// nothing to do.
func TestRouterOverloadAndDrain(t *testing.T) {
	// The backend is a bare frame whose handler parks on gate.
	entered, gate := make(chan struct{}, 4), make(chan struct{})
	backend := server.NewFrame(server.FrameConfig{Name: "stub"}, func(_ context.Context, req *wire.Request) *wire.Response {
		entered <- struct{}{}
		<-gate
		return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: 7}
	})
	serve := func(s interface{ Serve(net.Listener) error }) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = s.Serve(ln) }()
		return ln.Addr().String()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer func() { _ = backend.Shutdown(ctx) }()

	rt, err := New(Config{
		MaxInFlight: 1,
		Map: &shardmap.Map{
			Version: shardmap.FormatVersion,
			Dims:    2,
			Shards: []shardmap.Shard{{
				MBR:   shardmap.RectJSON{Min: []float64{0, 0}, Max: []float64{1, 1}},
				Count: 7,
				Addrs: []string{serve(backend)},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := serve(rt)
	if !rt.Ready() {
		t.Fatal("router not ready while serving")
	}

	slow, fast := server.Dial(addr), server.Dial(addr)
	defer func() { _ = slow.Close(); _ = fast.Close() }()
	type result struct {
		n   uint64
		err error
	}
	slowDone := make(chan result, 1)
	go func() {
		n, err := slow.Count(geom.R2(0, 0, 1, 1))
		slowDone <- result{n, err}
	}()
	<-entered

	if _, err := fast.Count(geom.R2(0, 0, 1, 1)); !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("request past the admission cap: %v, want ErrOverloaded", err)
	}
	var metrics bytes.Buffer
	if err := rt.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strrouter_rejected_total 1\n", "strrouter_inflight_requests 1\n"} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- rt.Shutdown(ctx) }()
	for !rt.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := fast.Count(geom.R2(0, 0, 1, 1)); !errors.Is(err, server.ErrDraining) {
		t.Fatalf("request during drain: %v, want ErrDraining", err)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a fan-out still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if res := <-slowDone; res.err != nil || res.n != 7 {
		t.Fatalf("parked fan-out during drain = %d, %v; want 7, nil", res.n, res.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	if err := rt.Shutdown(ctx); !errors.Is(err, server.ErrAlreadyShutDown) {
		t.Fatalf("second Shutdown = %v, want ErrAlreadyShutDown", err)
	}
}
