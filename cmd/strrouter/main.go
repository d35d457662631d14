// Command strrouter is the fan-out proxy over a sharded strserve fleet.
// It speaks the same wire protocol as strserve on both sides: clients
// connect to the router exactly as they would to a single server, and
// the router scatters each query to the shard backends whose MBRs
// overlap it, gathers the per-shard answers, and merges them
// deterministically (see internal/router).
//
// Usage:
//
//	strrouter -map shards.json [-backends host0:7070,host1:7070,...]
//	          [-addr :7080] [-admin 127.0.0.1:9091]
//	          [-max-inflight 64] [-timeout 5s] [-max-timeout 60s]
//	          [-backend-conc 4] [-fail-threshold 3] [-probe 2s]
//	          [-drain-timeout 10s] [-drain-grace 2s]
//	strrouter -selftest [-shards 3] [-size 6000] [-queries 60] [-seed 1]
//	          [-admin 127.0.0.1:0]
//
// -map is the shards.json manifest written by strload build -shards N.
// If the manifest does not carry backend addresses (strload leaves Addrs
// empty — deployment's job), -backends supplies one comma-separated
// address per shard, in shard order; a shard may list several
// replica addresses separated by '|' and idempotent reads get one retry
// on another replica. -backends also overrides any addresses already in
// the manifest.
//
// The router runs until SIGTERM or SIGINT, then drains like strserve:
// /healthz flips to 503, -drain-grace lets load balancers route away,
// new connections are refused, in-flight fan-outs finish under
// -drain-timeout, and backend client pools close last.
//
// -selftest builds an in-process topology — N strserve backends over an
// STR-partitioned dataset plus this router — and proves the three router
// contracts: answers identical to a single unsharded tree, fan-out
// pruned to overlapping shards (verified by backend request counters),
// and a killed backend surfacing as StatusUnavailable quickly rather
// than a hang.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"strtree/internal/router"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
)

func main() {
	var (
		mapPath      = flag.String("map", "", "shards.json manifest (required for serving)")
		backends     = flag.String("backends", "", "comma-separated backend address per shard, in shard order ('|' separates replicas); overrides manifest addresses")
		addr         = flag.String("addr", "127.0.0.1:7080", "listen address for the client-facing wire protocol")
		adminAddr    = flag.String("admin", "", "admin HTTP endpoint (/metrics, /stats, /healthz, /debug/pprof); empty disables; bind to loopback")
		maxInFlight  = flag.Int("max-inflight", 64, "admission cap on concurrently executing client requests")
		timeout      = flag.Duration("timeout", 5*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		backendConc  = flag.Int("backend-conc", 4, "max in-flight requests per backend (client pool size)")
		failThresh   = flag.Int("fail-threshold", 3, "consecutive transport failures that eject a backend")
		probeEvery   = flag.Duration("probe", 2*time.Second, "re-probe interval for ejected backends")
		dialTimeout  = flag.Duration("dial-timeout", 2*time.Second, "backend connection establishment cap")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight fan-outs on shutdown")
		drainGrace   = flag.Duration("drain-grace", 0, "delay between flipping /healthz to 503 and starting the drain")

		selftest = flag.Bool("selftest", false, "run the in-process topology proof and exit")
		shards   = flag.Int("shards", 3, "selftest: backend count")
		size     = flag.Int("size", 6000, "selftest: indexed items")
		queries  = flag.Int("queries", 60, "selftest: window/point/kNN probes")
		seed     = flag.Int64("seed", 1, "selftest: data and workload seed")
	)
	flag.Parse()

	var err error
	switch {
	case *selftest:
		err = router.Selftest(os.Stdout, router.SelftestConfig{
			Shards:    *shards,
			Size:      *size,
			Queries:   *queries,
			Seed:      *seed,
			AdminAddr: *adminAddr,
		})
	case *mapPath != "":
		err = serve(*mapPath, *backends, *addr, serveConfig{
			adminAddr:    *adminAddr,
			maxInFlight:  *maxInFlight,
			timeout:      *timeout,
			maxTimeout:   *maxTimeout,
			backendConc:  *backendConc,
			failThresh:   *failThresh,
			probeEvery:   *probeEvery,
			dialTimeout:  *dialTimeout,
			drainTimeout: *drainTimeout,
			drainGrace:   *drainGrace,
		})
	default:
		fmt.Fprintln(os.Stderr, "usage: strrouter -map shards.json [-backends a,b,c] | -selftest")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "strrouter: %v\n", err)
		os.Exit(1)
	}
}

type serveConfig struct {
	adminAddr    string
	maxInFlight  int
	timeout      time.Duration
	maxTimeout   time.Duration
	backendConc  int
	failThresh   int
	probeEvery   time.Duration
	dialTimeout  time.Duration
	drainTimeout time.Duration
	drainGrace   time.Duration
}

// applyBackends fills or overrides the manifest's per-shard addresses
// from the -backends flag: one comma-separated entry per shard, each
// entry optionally listing '|'-separated replicas.
func applyBackends(m *shardmap.Map, backends string) error {
	if backends == "" {
		for i, s := range m.Shards {
			if len(s.Addrs) == 0 {
				return fmt.Errorf("shard %d has no backend address in the manifest; pass -backends", i)
			}
		}
		return nil
	}
	parts := strings.Split(backends, ",")
	if len(parts) != len(m.Shards) {
		return fmt.Errorf("-backends lists %d entries, manifest has %d shards", len(parts), len(m.Shards))
	}
	for i, p := range parts {
		var addrs []string
		for _, a := range strings.Split(p, "|") {
			a = strings.TrimSpace(a)
			if a == "" {
				return fmt.Errorf("-backends entry %d has an empty address", i)
			}
			addrs = append(addrs, a)
		}
		m.Shards[i].Addrs = addrs
	}
	return nil
}

// serve loads the manifest, builds the router and runs it until a
// termination signal starts the drain (server.Run, as strserve does).
func serve(mapPath, backends, addr string, cfg serveConfig) error {
	m, err := shardmap.Load(mapPath)
	if err != nil {
		return err
	}
	if err := applyBackends(m, backends); err != nil {
		return err
	}

	r, err := router.New(router.Config{
		Map:                m,
		MaxInFlight:        cfg.maxInFlight,
		DefaultTimeout:     cfg.timeout,
		MaxTimeout:         cfg.maxTimeout,
		BackendConcurrency: cfg.backendConc,
		FailureThreshold:   cfg.failThresh,
		ProbeInterval:      cfg.probeEvery,
		DialTimeout:        cfg.dialTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = r.Shutdown(ctx) // nothing is in flight: stops the probe loop, closes the pools
		return err
	}
	fmt.Printf("strrouter: routing %d shards (%d backends) on %s\n",
		len(m.Shards), len(r.BackendStats()), ln.Addr())
	return server.Run(context.Background(), r, ln, server.RunConfig{
		Name:         "strrouter",
		Out:          os.Stdout,
		AdminAddr:    cfg.adminAddr,
		DrainGrace:   cfg.drainGrace,
		DrainTimeout: cfg.drainTimeout,
	}, nil)
}
