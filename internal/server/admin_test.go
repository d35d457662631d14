package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"strtree"
)

// adminFixture is a served tree plus an httptest server over the admin
// handler, with a protocol client pointed at the query port.
type adminFixture struct {
	srv   *Server
	admin *httptest.Server
	cl    *Client
	logs  *logBuf
}

type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logBuf) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func (l *logBuf) contains(substr string) bool {
	for _, ln := range l.all() {
		if strings.Contains(ln, substr) {
			return true
		}
	}
	return false
}

func newAdminFixture(t *testing.T, cfg Config) *adminFixture {
	t.Helper()
	tree, err := strtree.New(strtree.Options{BufferShards: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = tree.Close() })
	if err := tree.BulkLoad(uniformItems(2000, 7), strtree.PackSTR); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	logs := &logBuf{}
	cfg.Logf = logs.logf
	srv := New(tree, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	admin := httptest.NewServer(srv.AdminHandler())
	t.Cleanup(admin.Close)
	cl := Dial(ln.Addr().String())
	t.Cleanup(func() { _ = cl.Close() })
	return &adminFixture{srv: srv, admin: admin, cl: cl, logs: logs}
}

func (f *adminFixture) get(t *testing.T, path string) (int, string) {
	t.Helper()
	status, body, err := httpGet(f.admin.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return status, body
}

// TestAdminRoundTrip drives real requests through the wire protocol and
// asserts the admin surface reflects them: request counters, per-shard
// buffer series, latency summaries, JSON stats and a healthy /healthz.
func TestAdminRoundTrip(t *testing.T) {
	f := newAdminFixture(t, Config{})

	if status, body := f.get(t, "/healthz"); status != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", status, body)
	}

	for i := 0; i < 5; i++ {
		if _, err := f.cl.Count(strtree.R2(0.1, 0.1, 0.3, 0.3)); err != nil {
			t.Fatalf("Count: %v", err)
		}
	}
	if _, err := f.cl.Search(strtree.R2(0.4, 0.4, 0.5, 0.5)); err != nil {
		t.Fatalf("Search: %v", err)
	}

	status, body := f.get(t, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", status)
	}
	for _, want := range []string{
		"# TYPE strserve_requests_total counter\n",
		"strserve_requests_total{op=\"count\"} 5\n",
		"strserve_requests_total{op=\"search\"} 1\n",
		"# TYPE strserve_op_latency_seconds summary\n",
		"strserve_op_latency_seconds_count{op=\"count\"} 5\n",
		"strserve_buffer_hits_total{shard=\"0\"}",
		"strserve_buffer_hits_total{shard=\"3\"}",
		"strserve_buffer_pinned_frames{shard=\"0\"} 0\n",
		"# TYPE strserve_read_queries_total counter\n",
		"strserve_read_queries_total 6\n",
		"# TYPE strserve_view_pages_total counter\n",
		"# TYPE strserve_checked_pages_total counter\n",
		"# TYPE strserve_traverser_allocs_total counter\n",
		"strserve_draining 0\n",
		"strserve_ready 1\n",
		"strserve_tree_items 2000\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}

	status, body = f.get(t, "/stats")
	if status != http.StatusOK {
		t.Fatalf("/stats = %d, want 200", status)
	}
	var families []struct {
		Name   string `json:"name"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  *float64          `json:"value"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &families); err != nil {
		t.Fatalf("/stats does not parse as JSON: %v", err)
	}
	found := false
	for _, fam := range families {
		if fam.Name != "strserve_requests_total" {
			continue
		}
		for _, s := range fam.Series {
			if s.Labels["op"] == "count" && s.Value != nil && *s.Value == 5 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("/stats missing strserve_requests_total{op=count} == 5")
	}

	if status, _ := f.get(t, "/debug/pprof/cmdline"); status != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", status)
	}
}

// TestAdminHealthzDrain pins the readiness sequence: 200 while serving,
// 503 after MarkNotReady (still serving), 503 once Shutdown drains.
func TestAdminHealthzDrain(t *testing.T) {
	f := newAdminFixture(t, Config{})

	f.srv.MarkNotReady()
	if status, body := f.get(t, "/healthz"); status != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("/healthz after MarkNotReady = %d %q, want 503 draining", status, body)
	}
	// Not ready is advisory: requests are still served.
	if _, err := f.cl.Count(strtree.R2(0, 0, 1, 1)); err != nil {
		t.Fatalf("Count while not ready: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if status, _ := f.get(t, "/healthz"); status != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during drain = %d, want 503", status)
	}
	if _, body := f.get(t, "/metrics"); !strings.Contains(body, "strserve_draining 1\n") {
		t.Errorf("/metrics after drain missing strserve_draining 1")
	}
}

// TestSlowQueryLog pins the slow-query log: with a threshold of 1ns every
// request is slow, so the counter climbs and Logf sees the line.
func TestSlowQueryLog(t *testing.T) {
	f := newAdminFixture(t, Config{SlowQueryThreshold: time.Nanosecond})

	if _, err := f.cl.Count(strtree.R2(0.1, 0.1, 0.2, 0.2)); err != nil {
		t.Fatalf("Count: %v", err)
	}
	if !f.logs.contains("slow query") {
		t.Errorf("no slow-query log line after a request over threshold")
	}
	if _, body := f.get(t, "/metrics"); !strings.Contains(body, "strserve_slow_queries_total 1\n") {
		t.Errorf("/metrics missing strserve_slow_queries_total 1")
	}
}
