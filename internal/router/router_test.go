package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
	"strtree/internal/server/wire"
)

// TestRoutedTopology proves the router's three contracts end to end on
// an in-process topology (3 STR shards of 8 000 items, 60 probes per op),
// against one unsharded tree of the same items:
//
//  1. Identity: search, count, point search, kNN and batch answer exactly
//     what the unsharded tree answers (searches as ID sets, kNN as
//     (distance, ID) sequences, counts exactly).
//  2. Pruning: per-backend request counters equal the shard-MBR overlap
//     prediction, and some windows do skip a shard.
//  3. Failure: a killed backend answers ErrUnavailable in under 3 s, its
//     ejection is counted (in BackendStats and on /metrics), and the other
//     shards keep answering.
//
// Around them the admin surface: /healthz 200 while serving, 503 from
// MarkNotReady through a clean drain.
func TestRoutedTopology(t *testing.T) {
	const shards, size, queries = 3, 8000, 60
	items := testItems(size, 1)
	ref, err := strtree.New(strtree.Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ref.Close() }()
	if err := ref.BulkLoad(items, strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	topo, err := buildTopology(items, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	rt, cl := topo.router, topo.client
	healthz := func() int {
		rec := httptest.NewRecorder()
		rt.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}
	if code := healthz(); code != 200 {
		t.Fatalf("/healthz while serving = %d, want 200", code)
	}

	// Identity, and the fan-out each op should have.
	rng := rand.New(rand.NewSource(2))
	expected := make([]uint64, shards) // predicted per-backend requests
	narrow := 0                        // windows that skipped at least one shard
	for q := 0; q < queries; q++ {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		win := geom.R2(x, y, x+0.1, y+0.1) // a 1 % window
		pt := geom.Pt2(rng.Float64(), rng.Float64())
		k := 1 + rng.Intn(10)
		hit := topo.m.OverlapRect(win)
		for _, id := range hit {
			expected[id] += 2 // search + count
		}
		if len(hit) < shards {
			narrow++
		}
		for _, id := range topo.m.OverlapPoint(pt) {
			expected[id]++
		}
		for _, id := range topo.m.All() {
			expected[id]++ // nearest broadcasts
		}

		want := refIDs(t, ref, win)
		got, err := cl.Search(win)
		if err != nil || !slices.Equal(itemIDs(got), want) {
			t.Fatalf("search %d: sharded %d items (%v), unsharded %d, or IDs differ", q, len(got), err, len(want))
		}
		if n, err := cl.Count(win); err != nil || n != uint64(len(want)) {
			t.Fatalf("count %d: sharded %d (%v), unsharded %d", q, n, err, len(want))
		}
		gotPt := ask(t, cl, wire.Request{Op: wire.OpSearchPoint, Point: pt}).Items
		if !slices.Equal(itemIDs(gotPt), refIDs(t, ref, strtree.PointRect(pt))) {
			t.Fatalf("searchpoint %d: results differ", q)
		}
		gotNb := ask(t, cl, wire.Request{Op: wire.OpNearest, Point: pt, K: uint32(k)}).Neighbors
		wantNb, wantDists, err := ref.NearestK(pt, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotNb) != len(wantNb) {
			t.Fatalf("nearest %d: sharded %d neighbors, unsharded %d", q, len(gotNb), len(wantNb))
		}
		for i := range gotNb {
			// The merge promises bit-identical distances to the unsharded tree.
			if gotNb[i].Item.ID != wantNb[i].ID || gotNb[i].Dist != wantDists[i] {
				t.Fatalf("nearest %d[%d]: sharded (%d, %g), unsharded (%d, %g)",
					q, i, gotNb[i].Item.ID, gotNb[i].Dist, wantNb[i].ID, wantDists[i])
			}
		}
	}
	batch := make([]geom.Rect, 8)
	batchHit := map[int]bool{}
	for i := range batch {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		batch[i] = geom.R2(x, y, x+0.1, y+0.1)
		for _, id := range topo.m.OverlapRect(batch[i]) {
			batchHit[id] = true
		}
	}
	for id := range batchHit {
		expected[id]++
	}
	gotBatch := ask(t, cl, wire.Request{Op: wire.OpBatch, Batch: batch}).Batch
	for i, q := range batch {
		if !slices.Equal(itemIDs(gotBatch[i]), refIDs(t, ref, q)) {
			t.Fatalf("batch[%d]: results differ", i)
		}
	}
	// Stats is a cluster aggregate, not comparable to the reference tree:
	// it fans out to every backend and must report work done.
	for _, id := range topo.m.All() {
		expected[id]++
	}
	if st, err := cl.Stats(); err != nil || st.Completed == 0 || st.LogicalReads == 0 {
		t.Fatalf("stats: aggregate reports no work (completed=%d logical=%d, %v)", st.Completed, st.LogicalReads, err)
	}

	// Pruning: no shard was asked anything the map could prove empty.
	if narrow == 0 {
		t.Fatal("no window skipped a shard; the geometry gives pruning nothing to prove")
	}
	for i, b := range rt.BackendStats() {
		if b.Requests != expected[i] {
			t.Errorf("backend %d (%s) saw %d requests, shard-MBR prediction is %d", i, b.Addr, b.Requests, expected[i])
		}
		if b.Errors != 0 || b.Retries != 0 || b.Ejections != 0 {
			t.Errorf("backend %d unhealthy before the kill: %+v", i, b)
		}
	}

	// Kill backend 0: a window inside its MBR must answer unavailable
	// promptly, not hang until a transport timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := topo.backends[0].Shutdown(ctx); err != nil {
		t.Fatalf("killing backend 0: %v", err)
	}
	middle := func(shard int) geom.Rect {
		r := topo.m.Shards[shard].MBR.Rect()
		cx, cy := (r.Min[0]+r.Max[0])/2, (r.Min[1]+r.Max[1])/2
		return geom.R2(cx, cy, cx+1e-6, cy+1e-6)
	}
	t0 := time.Now()
	if _, err := cl.Count(middle(0)); !errors.Is(err, server.ErrUnavailable) {
		t.Fatalf("query into the killed shard: %v, want ErrUnavailable", err)
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("unavailable answer took %v; it must fail fast, not hang", d)
	}
	if b := rt.BackendStats()[0]; b.Ejections == 0 {
		t.Fatalf("backend 0 not ejected after the kill: %+v", b)
	}
	if _, err := cl.Count(middle(shards - 1)); err != nil {
		t.Fatalf("healthy shard stopped answering after an unrelated kill: %v", err)
	}
	var metrics bytes.Buffer
	if err := rt.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	requestSeries, ejected := 0, false
	for _, line := range strings.Split(metrics.String(), "\n") {
		if strings.HasPrefix(line, "strrouter_backend_requests_total{") {
			requestSeries++
		}
		if strings.HasPrefix(line, "strrouter_backend_ejections_total{") && !strings.HasSuffix(line, " 0") {
			ejected = true
		}
	}
	if requestSeries != shards || !ejected {
		t.Fatalf("/metrics after the kill: %d strrouter_backend_requests_total samples (want %d), non-zero ejections %v\n%s",
			requestSeries, shards, ejected, metrics.String())
	}
	for _, family := range []string{"strrouter_backend_requests_total", "strrouter_backend_ejections_total"} {
		if !strings.Contains(metrics.String(), "# TYPE "+family+" counter\n") {
			t.Errorf("/metrics: %s is not typed a counter", family)
		}
	}

	// The readiness flip, then a clean drain behind it.
	rt.MarkNotReady()
	if code := healthz(); code != 503 {
		t.Fatalf("/healthz after MarkNotReady = %d, want 503", code)
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := healthz(); code != 503 {
		t.Fatalf("/healthz after the drain = %d, want 503", code)
	}
}

// TestRouterEdges drives the running topology through the edges
// TestRoutedTopology's randomized workload does not pin down: a query outside
// every shard (empty fan-out), a dimensionality mismatch, and a window
// spanning all shards.
func TestRouterEdges(t *testing.T) {
	items := testItems(500, 7)
	topo, err := buildTopology(items, 2)
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
	items := testItems(100, 1)
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
	items := testItems(300, 3)
	topo, err := buildTopology(items, 2)
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
