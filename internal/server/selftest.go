package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/histo"
	"strtree/internal/query"
)

// SelftestConfig tunes the in-process load harness behind
// `strserve -selftest`.
type SelftestConfig struct {
	// Clients is the number of concurrent client connections; 0 means 8.
	Clients int
	// QueriesPerClient is each client's query count; 0 means 200.
	QueriesPerClient int
	// Size is the packed tree's item count; 0 means 20000.
	Size int
	// Shards is the tree's buffer shard count; 0 means 8.
	Shards int
	// MaxInFlight is the server's admission cap; 0 means 2*Clients, so
	// steady load is admitted and rejections only appear under bursts.
	MaxInFlight int
	// Seed fixes data and workload generation.
	Seed int64
	// AdminAddr, when non-empty, binds the admin HTTP endpoint there
	// ("127.0.0.1:0" for an ephemeral port) and extends the selftest into
	// an admin smoke test: /healthz must answer 200 under load, /metrics
	// must expose non-zero request counters and one buffer series per
	// shard, /stats must serve JSON, and /healthz must flip to 503 the
	// moment the drain begins.
	AdminAddr string
}

func (c SelftestConfig) withDefaults() SelftestConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.QueriesPerClient <= 0 {
		c.QueriesPerClient = 200
	}
	if c.Size <= 0 {
		c.Size = 20000
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * c.Clients
	}
	return c
}

// uniformItems generates n uniformly placed squares in the unit square,
// the paper's UNIFORM distribution shape, sized for ~5% total coverage.
func uniformItems(n int, seed int64) []strtree.Item {
	rng := rand.New(rand.NewSource(seed))
	side := 0.0
	if n > 0 {
		// total area 0.05 spread over n squares
		side = math.Sqrt(0.05 / float64(n))
	}
	items := make([]strtree.Item, n)
	for i := range items {
		x := rng.Float64() * (1 - side)
		y := rng.Float64() * (1 - side)
		items[i] = strtree.Item{
			Rect: geom.Rect{Min: geom.Pt2(x, y), Max: geom.Pt2(x+side, y+side)},
			ID:   uint64(i),
		}
	}
	return items
}

// Selftest packs an in-memory tree, serves it on a loopback listener,
// hammers it with cfg.Clients concurrent protocol clients, and writes a
// throughput and latency report to w. It exercises the full stack —
// codec, admission, deadlines, drain — in one process, so it doubles as
// a smoke test: any status other than OK or Overloaded fails it.
func Selftest(w io.Writer, cfg SelftestConfig) error {
	cfg = cfg.withDefaults()

	tree, err := strtree.New(strtree.Options{BufferPages: 256, BufferShards: cfg.Shards})
	if err != nil {
		return err
	}
	defer func() { _ = tree.Close() }()
	if err := tree.BulkLoad(uniformItems(cfg.Size, cfg.Seed), strtree.PackSTR); err != nil {
		return err
	}

	srv := New(tree, Config{MaxInFlight: cfg.MaxInFlight})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	// Workload: the paper's 1% region queries, a disjoint slice per client.
	total := cfg.Clients * cfg.QueriesPerClient
	qs := query.Regions(total, query.Extent1Pct, cfg.Seed+1)

	var (
		lat        histo.Histogram
		overloaded atomic.Uint64
		firstErr   error
		errOnce    sync.Once
		wg         sync.WaitGroup
		elapsed    time.Duration
	)
	err = AdminSmoke(w, srv, cfg.AdminAddr, []SeriesExpect{
		{Name: "strserve_requests_total", Type: "counter", NonZero: true},
		{Name: "strserve_op_latency_seconds", Type: "summary"},
		{Name: "strserve_buffer_hits_total", Type: "counter", Samples: cfg.Shards},
		{Name: "strserve_buffer_pinned_frames", Type: "gauge"},
	}, "[", func() error {
		start := time.Now()
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := Dial(addr)
				defer func() { _ = cl.Close() }()
				for _, q := range qs[c*cfg.QueriesPerClient : (c+1)*cfg.QueriesPerClient] {
					t0 := time.Now()
					_, err := cl.Count(q)
					lat.Observe(time.Since(t0))
					if errors.Is(err, ErrOverloaded) {
						overloaded.Add(1)
						continue
					}
					if err != nil {
						errOnce.Do(func() { firstErr = fmt.Errorf("client %d: %w", c, err) })
						return
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return err
	}
	if err := <-serveErr; err != nil {
		return fmt.Errorf("selftest: serve: %w", err)
	}
	if firstErr != nil {
		return fmt.Errorf("selftest: %w", firstErr)
	}

	st := srv.Stats()
	sum := lat.Summarize()
	served := sum.Count - overloaded.Load()
	fmt.Fprintf(w, "selftest: %d clients x %d queries against %d items (%d buffer shards)\n",
		cfg.Clients, cfg.QueriesPerClient, cfg.Size, cfg.Shards)
	fmt.Fprintf(w, "  served %d, overloaded %d, wall %v, %.0f qps\n",
		served, overloaded.Load(), elapsed.Round(time.Millisecond),
		float64(served)/elapsed.Seconds())
	fmt.Fprintf(w, "  client latency: p50 %v  p95 %v  p99 %v  max %v\n",
		time.Duration(sum.P50), time.Duration(sum.P95),
		time.Duration(sum.P99), time.Duration(sum.Max))
	fmt.Fprintf(w, "  server: accepted %d rejected %d completed %d timed-out %d failed %d\n",
		st.Accepted, st.Rejected, st.Completed, st.TimedOut, st.Failed)
	fmt.Fprintf(w, "  buffer: logical %d disk %d (hit ratio %.3f)\n",
		st.LogicalReads, st.DiskReads, hitRatio(st.LogicalReads, st.DiskReads))
	if st.Failed > 0 {
		return fmt.Errorf("selftest: %d requests failed server-side", st.Failed)
	}
	return nil
}

func hitRatio(logical, disk uint64) float64 {
	if logical == 0 {
		return 0
	}
	return 1 - float64(disk)/float64(logical)
}

// httpGet fetches one admin URL, returning status code and body.
func httpGet(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

// SeriesExpect is one series family the admin smoke looks for on
// /metrics after the load.
type SeriesExpect struct {
	Name string
	// Type, when set, is the family's kind on its "# TYPE" line.
	Type string
	// Samples, when positive, is how many samples the family must carry.
	Samples int
	// NonZero requires at least one sample with a non-zero value.
	NonZero bool
}

// AdminSmoke runs load against a serving svc and drains it afterwards,
// whatever load returned. With adminAddr set ("127.0.0.1:0" for an
// ephemeral port) it binds the admin endpoint there and checks its
// contract around the load: /healthz answers 200 while serving, /metrics
// carries series after the load, /stats begins with statsPrefix, and
// /healthz answers 503 from MarkNotReady through the drain.
func AdminSmoke(w io.Writer, svc Service, adminAddr string, series []SeriesExpect, statsPrefix string, load func() error) error {
	url, stopAdmin, err := serveAdmin(svc, adminAddr)
	// The admin endpoint outlives the drain — scraping a draining server
	// is exactly when the numbers matter.
	defer stopAdmin()
	healthz := func(when string, want int) error {
		if url == "" {
			return nil
		}
		status, body, err := httpGet(url + "/healthz")
		if err != nil {
			return fmt.Errorf("selftest: admin /healthz: %w", err)
		}
		if status != want {
			return fmt.Errorf("selftest: admin /healthz %s = %d %q, want %d", when, status, body, want)
		}
		return nil
	}

	if err == nil {
		err = healthz("while serving", http.StatusOK)
	}
	if err == nil {
		err = load()
	}
	if err == nil && url != "" {
		err = checkAdmin(w, url, series, statsPrefix)
	}
	if err == nil {
		// The k8s readiness sequence: flip /healthz before draining so
		// routers stop sending traffic, then verify the flip is visible.
		svc.MarkNotReady()
		err = healthz("after MarkNotReady", http.StatusServiceUnavailable)
	}
	//strlint:ignore ctxprop selftest is a self-contained harness; its shutdown deadline is the root
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if drainErr := svc.Shutdown(ctx); err == nil && drainErr != nil {
		err = fmt.Errorf("selftest: drain: %w", drainErr)
	}
	if err == nil && url != "" {
		if err = healthz("during drain", http.StatusServiceUnavailable); err == nil {
			fmt.Fprintf(w, "  admin: /healthz flipped to 503 before and during drain\n")
		}
	}
	return err
}

// checkAdmin asserts the admin endpoint's post-load contract: /metrics
// is Prometheus text carrying every expected family, and /stats serves
// JSON of the expected shape.
func checkAdmin(w io.Writer, url string, series []SeriesExpect, statsPrefix string) error {
	status, body, err := httpGet(url + "/metrics")
	if err != nil {
		return fmt.Errorf("selftest: admin /metrics: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("selftest: admin /metrics = %d, want 200", status)
	}
	lines := strings.Split(body, "\n")
	for _, want := range series {
		if typeLine := "# TYPE " + want.Name + " " + want.Type + "\n"; want.Type != "" && !strings.Contains(body, typeLine) {
			return fmt.Errorf("selftest: admin /metrics: missing %q", typeLine)
		}
		samples, nonZero := 0, false
		for _, line := range lines {
			if !strings.HasPrefix(line, want.Name+"{") && !strings.HasPrefix(line, want.Name+" ") {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				return fmt.Errorf("selftest: admin /metrics: bad sample %q: %w", line, err)
			}
			samples++
			nonZero = nonZero || v > 0
		}
		if want.Samples > 0 && samples != want.Samples {
			return fmt.Errorf("selftest: admin /metrics: %d %s samples, want %d", samples, want.Name, want.Samples)
		}
		if want.NonZero && !nonZero {
			return fmt.Errorf("selftest: admin /metrics: %s is zero after load", want.Name)
		}
	}
	status, stats, err := httpGet(url + "/stats")
	if err != nil {
		return fmt.Errorf("selftest: admin /stats: %w", err)
	}
	if status != http.StatusOK || !strings.HasPrefix(stats, statsPrefix) {
		return fmt.Errorf("selftest: admin /stats = %d %.40q, want 200 and JSON starting %q", status, stats, statsPrefix)
	}
	fmt.Fprintf(w, "  admin: /metrics ok (%d series families checked), /stats ok\n", len(series))
	return nil
}
