// Command strserve serves queries against a packed STR-tree index file
// over TCP, using the wire protocol in internal/server/wire.
//
// Usage:
//
//	strserve -idx index.str [-addr :7070] [-buffer 256] [-shards 8]
//	         [-max-inflight 64] [-timeout 5s] [-drain-timeout 10s]
//	         [-admin 127.0.0.1:9090] [-slowlog 250ms] [-drain-grace 2s]
//	         [-slowlog-json slow.jsonl]
//	strserve -map shards.json -shard 0 [flags as above]
//	strserve -query x0,y0,x1,y1 [-addr host:7070]
//	strserve -count x0,y0,x1,y1 [-addr host:7070]
//	strserve -stats [-addr host:7070]
//	strserve -selftest [-clients 32] [-queries 200] [-size 20000]
//	         [-admin 127.0.0.1:0]
//
// The serving mode runs until SIGTERM or SIGINT, then drains gracefully:
// it flips the admin health check to 503, waits -drain-grace so load
// balancers stop routing here, stops accepting connections, refuses new
// requests, finishes in-flight queries under -drain-timeout, and closes
// the index. -query, -count and -stats are one-shot clients against a
// running server (used by CI's loopback smoke test). -selftest runs an
// in-process server-plus-clients load harness and reports throughput and
// latency percentiles.
//
// -admin binds an operational HTTP endpoint serving Prometheus /metrics,
// a JSON /stats mirror, the drain-aware /healthz and /debug/pprof. Bind
// it to loopback or a trusted network only — the profiles and stats are
// internals. -slowlog logs every request at or over the threshold with
// its op, duration and result count; -slowlog-json additionally appends
// each one as a JSON line that strbench -replay can re-execute.
//
// -map/-shard serve one shard of a partitioned build (strload build
// -shards N): the index path is resolved from the manifest, so the same
// manifest drives the backends and the strrouter fan-out proxy.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"strtree"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
)

func main() {
	var (
		idx          = flag.String("idx", "", "index file to serve")
		addr         = flag.String("addr", "127.0.0.1:7070", "listen (or connect) address")
		bufPages     = flag.Int("buffer", 256, "buffer pool pages")
		shards       = flag.Int("shards", 8, "buffer pool shards (1 = single deterministic LRU)")
		maxInFlight  = flag.Int("max-inflight", 64, "admission cap on concurrently executing requests")
		timeout      = flag.Duration("timeout", 5*time.Second, "default per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
		adminAddr    = flag.String("admin", "", "admin HTTP endpoint (/metrics, /stats, /healthz, /debug/pprof); empty disables; bind to loopback")
		slowlog      = flag.Duration("slowlog", 0, "log requests at or over this duration (0 disables)")
		slowlogJSON  = flag.String("slowlog-json", "", "append slow queries as JSON lines to this file (one object per query; requires -slowlog > 0); strbench -replay re-executes the capture")
		drainGrace   = flag.Duration("drain-grace", 0, "delay between flipping /healthz to 503 and starting the drain")
		mapPath      = flag.String("map", "", "shards.json manifest written by strload build -shards; -shard selects which entry to serve")
		shardID      = flag.Int("shard", -1, "shard number to serve from the -map manifest")
		mutable      = flag.Bool("mutable", false, "accept insert/delete ops over the wire; mutations serialize behind a write lock")

		queryRect  = flag.String("query", "", "one-shot client: search rectangle x0,y0,x1,y1")
		countRect  = flag.String("count", "", "one-shot client: count matches of rectangle x0,y0,x1,y1")
		stats      = flag.Bool("stats", false, "one-shot client: print server stats")
		insertSpec = flag.String("insert", "", "one-shot client: insert item x0,y0,x1,y1:id (server must run -mutable)")
		deleteSpec = flag.String("delete", "", "one-shot client: delete item x0,y0,x1,y1:id, exact match (server must run -mutable)")

		selftest = flag.Bool("selftest", false, "run the in-process load harness and exit")
		clients  = flag.Int("clients", 32, "selftest: concurrent clients")
		queries  = flag.Int("queries", 200, "selftest: queries per client")
		size     = flag.Int("size", 20000, "selftest: indexed items")
		seed     = flag.Int64("seed", 1, "selftest: data and workload seed")
	)
	flag.Parse()

	var err error
	switch {
	case *selftest:
		err = server.Selftest(os.Stdout, server.SelftestConfig{
			Clients:          *clients,
			QueriesPerClient: *queries,
			Size:             *size,
			Shards:           *shards,
			Seed:             *seed,
			AdminAddr:        *adminAddr,
		})
	case *queryRect != "":
		err = runClientQuery(*addr, *queryRect, false)
	case *countRect != "":
		err = runClientQuery(*addr, *countRect, true)
	case *stats:
		err = runClientStats(*addr)
	case *insertSpec != "":
		err = runClientMutate(*addr, *insertSpec, false)
	case *deleteSpec != "":
		err = runClientMutate(*addr, *deleteSpec, true)
	case *idx != "" || *mapPath != "":
		target := *idx
		if *mapPath != "" {
			target, err = resolveShardIndex(*mapPath, *shardID, *idx)
		}
		if err == nil {
			err = serve(target, *addr, serveConfig{
				bufPages:     *bufPages,
				shards:       *shards,
				maxInFlight:  *maxInFlight,
				timeout:      *timeout,
				drainTimeout: *drainTimeout,
				adminAddr:    *adminAddr,
				slowlog:      *slowlog,
				slowlogJSON:  *slowlogJSON,
				drainGrace:   *drainGrace,
				mutable:      *mutable,
			})
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: strserve -idx index.str | -query rect | -count rect | -stats | -selftest")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "strserve: %v\n", err)
		os.Exit(1)
	}
}

type serveConfig struct {
	bufPages     int
	shards       int
	maxInFlight  int
	timeout      time.Duration
	drainTimeout time.Duration
	adminAddr    string
	slowlog      time.Duration
	slowlogJSON  string
	drainGrace   time.Duration
	mutable      bool
}

// resolveShardIndex maps -map/-shard to the shard's index file. An
// explicit -idx wins (the manifest then only documents the topology).
func resolveShardIndex(mapPath string, shardID int, idx string) (string, error) {
	if idx != "" {
		return idx, nil
	}
	m, err := shardmap.Load(mapPath)
	if err != nil {
		return "", err
	}
	if shardID < 0 || shardID >= len(m.Shards) {
		return "", fmt.Errorf("-shard %d out of range: manifest has %d shards", shardID, len(m.Shards))
	}
	if m.Shards[shardID].Index == "" {
		return "", fmt.Errorf("shard %d has no index file in %s", shardID, mapPath)
	}
	return m.IndexPath(mapPath, shardID), nil
}

// serve opens the index and runs the server on it until a termination
// signal starts the drain (server.Run).
func serve(idx, addr string, cfg serveConfig) error {
	tree, err := strtree.Open(idx, strtree.Options{
		BufferPages:  cfg.bufPages,
		BufferShards: cfg.shards,
	})
	if err != nil {
		return err
	}

	var slowFile *os.File
	if cfg.slowlogJSON != "" {
		if cfg.slowlog <= 0 {
			_ = tree.Close()
			return fmt.Errorf("-slowlog-json requires -slowlog > 0 (the threshold decides what is captured)")
		}
		slowFile, err = os.OpenFile(cfg.slowlogJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			_ = tree.Close()
			return err
		}
		defer func() { _ = slowFile.Close() }()
	}

	srvCfg := server.Config{
		MaxInFlight:        cfg.maxInFlight,
		DefaultTimeout:     cfg.timeout,
		SlowQueryThreshold: cfg.slowlog,
		Mutable:            cfg.mutable,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if slowFile != nil {
		srvCfg.SlowLogJSON = slowFile
	}
	srv := server.New(tree, srvCfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = tree.Close()
		return err
	}
	mode := "read-only"
	if cfg.mutable {
		mode = "mutable"
	}
	fmt.Printf("strserve: serving %s (%d items, height %d, %s) on %s\n",
		idx, tree.Len(), tree.Height(), mode, ln.Addr())
	return server.Run(context.Background(), srv, ln, server.RunConfig{
		Name:         "strserve",
		Out:          os.Stdout,
		AdminAddr:    cfg.adminAddr,
		DrainGrace:   cfg.drainGrace,
		DrainTimeout: cfg.drainTimeout,
	}, tree.Close)
}

// runClientQuery runs one window query against a running server.
func runClientQuery(addr, rect string, countOnly bool) error {
	q, err := parseRect(rect)
	if err != nil {
		return err
	}
	cl := server.Dial(addr)
	defer func() { _ = cl.Close() }()
	if countOnly {
		n, err := cl.Count(q)
		if err != nil {
			return err
		}
		fmt.Println(n)
		return nil
	}
	items, err := cl.Search(q)
	if err != nil {
		return err
	}
	for _, it := range items {
		fmt.Printf("%d\t%v\n", it.ID, it.Rect)
	}
	fmt.Printf("# %d results\n", len(items))
	return nil
}

// runClientMutate sends one insert or delete to a running server. The
// spec is "x0,y0,x1,y1:id" — the item's rectangle and identifier.
func runClientMutate(addr, spec string, del bool) error {
	rectPart, idPart, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("mutation %q: want x0,y0,x1,y1:id", spec)
	}
	q, err := parseRect(rectPart)
	if err != nil {
		return err
	}
	id, err := strconv.ParseUint(strings.TrimSpace(idPart), 10, 64)
	if err != nil {
		return fmt.Errorf("mutation %q: id: %w", spec, err)
	}
	cl := server.Dial(addr)
	defer func() { _ = cl.Close() }()
	if del {
		found, n, err := cl.Delete(q, id)
		if err != nil {
			return err
		}
		fmt.Printf("deleted=%t items=%d\n", found, n)
		return nil
	}
	n, err := cl.Insert(q, id)
	if err != nil {
		return err
	}
	fmt.Printf("inserted id=%d items=%d\n", id, n)
	return nil
}

// runClientStats fetches and prints a running server's stats snapshot.
func runClientStats(addr string) error {
	cl := server.Dial(addr)
	defer func() { _ = cl.Close() }()
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("in-flight:     %d\n", st.InFlight)
	fmt.Printf("accepted:      %d\n", st.Accepted)
	fmt.Printf("rejected:      %d\n", st.Rejected)
	fmt.Printf("completed:     %d\n", st.Completed)
	fmt.Printf("timed out:     %d\n", st.TimedOut)
	fmt.Printf("failed:        %d\n", st.Failed)
	fmt.Printf("draining:      %v\n", st.Draining)
	fmt.Printf("logical reads: %d\n", st.LogicalReads)
	fmt.Printf("disk reads:    %d\n", st.DiskReads)
	fmt.Printf("latency:       p50 %v  p95 %v  p99 %v  max %v (%d reqs)\n",
		time.Duration(st.Latency.P50), time.Duration(st.Latency.P95),
		time.Duration(st.Latency.P99), time.Duration(st.Latency.Max),
		st.Latency.Count)
	return nil
}

func parseRect(s string) (strtree.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return strtree.Rect{}, fmt.Errorf("rect %q: want x0,y0,x1,y1", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return strtree.Rect{}, fmt.Errorf("rect %q: %w", s, err)
		}
		v[i] = f
	}
	return strtree.NewRect(strtree.Pt2(v[0], v[1]), strtree.Pt2(v[2], v[3]))
}
