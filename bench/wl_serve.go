package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/router"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
	"strtree/internal/server/wire"
)

// serve: the end-to-end path client -> router -> shard -> tree -> buffer
// -> pager, in one process over loopback. uniform-1m is STR-partitioned
// into three file-backed shards (hot: 4 096 buffer pages in 4 shards
// each), each behind a strserve server, fronted by a strrouter. The trees
// are hot and a request touches little of them, so wire, server and
// router carry most of a request's time: a codec, chassis or fan-out
// change shows here and cannot touch the four library workloads.
//
// Phase A is a closed loop of P clients — callers of a query router wait
// for their replies — and gives capacity (ops_per_s). Closed-loop latency
// is only clients / throughput, so phase B offers a fixed rate well below
// capacity on an open schedule and times each request from when it was
// due (lat_p50_us, lat_p99_us).

type serveState struct {
	tp       *tape
	reqs     []wire.Request // one per tape op
	m        *shardmap.Map
	files    []string
	trees    []*strtree.Tree
	servers  []*server.Server
	router   *router.Router
	served   sync.WaitGroup // the Serve goroutines
	addr     string         // the router's
	shardTo  []string       // each shard server's
	items    int
	fileSize int64
	closed   bool
}

// close drains and stops the topology, once.
func (st *serveState) close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if st.router != nil {
		errs = append(errs, st.router.Shutdown(ctx))
	}
	for _, s := range st.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	st.served.Wait()
	for _, t := range st.trees {
		errs = append(errs, t.Close())
	}
	return errors.Join(errs...)
}

// serveOn starts serve on a fresh loopback listener and returns its
// address; st.close waits for the goroutine.
func (st *serveState) serveOn(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = serve(ln) // returns once Shutdown closes the listener
	}()
	return ln.Addr().String(), nil
}

func setupServe(c *runCtx) (_ *serveState, err error) {
	entries, items := genData(c.sz.items, c.cfg.seed)
	st := &serveState{items: len(items)}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
		}
	}()
	st.tp = genServeTape(c.cfg.seed, c.sz.serveOps, c.sz.serveCheckEvery)
	settle()

	// The answers checked responses must give come from one unsharded
	// tree over the whole data set.
	ref, err := strtree.New(strtree.Options{BufferPages: c.sz.hotPages, Workers: c.p})
	if err != nil {
		return nil, err
	}
	if err := ref.BulkLoad(items, strtree.PackSTR); err != nil {
		return nil, errors.Join(err, ref.Close())
	}
	refExec := newPublicExec(ref, st.tp, 1)
	for i, ci := range st.tp.check {
		if ci < 0 {
			continue
		}
		a, err := refExec.do(&st.tp.ops[i])
		if err != nil {
			return nil, errors.Join(err, ref.Close())
		}
		st.tp.want[ci] = a
	}
	if err := ref.Close(); err != nil {
		return nil, err
	}
	settle()

	m, parts, err := shardmap.Partition(entries, c.sz.shards, c.p)
	if err != nil {
		return nil, err
	}
	st.m = m
	for i, part := range parts {
		sub := make([]strtree.Item, len(part))
		for j, e := range part {
			sub[j] = strtree.Item{Rect: e.Rect, ID: e.Ref}
		}
		path := c.path(fmt.Sprintf("shard-%d.str", i))
		if err := buildIndex(path, sub, c.p); err != nil {
			return nil, err
		}
		st.files = append(st.files, path)
		size, err := fileSize(path)
		if err != nil {
			return nil, err
		}
		st.fileSize += size
		tree, err := strtree.Open(path, strtree.Options{BufferPages: c.sz.shardPages, BufferShards: c.sz.shardBufShards})
		if err != nil {
			return nil, err
		}
		st.trees = append(st.trees, tree)
		if err := tree.Scan(func(strtree.Item) bool { return true }); err != nil {
			return nil, err
		}
		srv := server.New(tree, server.Config{})
		st.servers = append(st.servers, srv)
		addr, err := st.serveOn(srv.Serve)
		if err != nil {
			return nil, err
		}
		st.shardTo = append(st.shardTo, addr)
		m.Shards[i].Addrs = []string{addr}
	}
	entries, items = nil, nil
	settle()
	st.router, err = router.New(router.Config{Map: m})
	if err != nil {
		return nil, err
	}
	if st.addr, err = st.serveOn(st.router.Serve); err != nil {
		return nil, err
	}

	st.reqs = make([]wire.Request, len(st.tp.ops))
	for i := range st.tp.ops {
		st.reqs[i] = st.tp.request(&st.tp.ops[i])
	}
	// Warm-up: connections dialled on both hops, every code path run.
	cl := server.Dial(st.addr)
	defer hangUp(cl)
	var tl tally
	for i := 0; i < min(c.sz.warmOps, len(st.reqs)); i++ {
		st.call(cl, i, &tl)
	}
	if tl.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", tl.firstFailure)
	}
	for _, t := range st.trees {
		t.ResetStats()
	}
	return st, nil
}

// hangUp closes a load-generating client's connection. Its replies are
// all in by then, so a failing Close has nothing left to lose.
func hangUp(cl *server.Client) { _ = cl.Close() }

// request turns a tape op into its wire request.
func (tp *tape) request(o *op) wire.Request {
	switch o.kind {
	case opPoint:
		return wire.Request{Op: wire.OpSearchPoint, Point: geom.Pt2(o.x0, o.y0)}
	case opSearch:
		return wire.Request{Op: wire.OpSearch, Query: geom.R2(o.x0, o.y0, o.x1, o.y1)}
	case opCount:
		return wire.Request{Op: wire.OpCount, Query: geom.R2(o.x0, o.y0, o.x1, o.y1)}
	case opNearest:
		return wire.Request{Op: wire.OpNearest, Point: geom.Pt2(o.x0, o.y0), K: kNearest}
	default:
		return wire.Request{Op: wire.OpBatch, Batch: tp.batchRects(o)}
	}
}

// digest reduces a response to the answer form the oracle uses.
func digest(resp *wire.Response) answer {
	var a answer
	switch resp.Op {
	case wire.OpCount:
		a.n = uint32(resp.Count)
	case wire.OpNearest:
		for _, nb := range resp.Neighbors {
			a.add(nb.Item.ID)
			a.addDist(nb.Dist)
		}
	case wire.OpBatch:
		for _, items := range resp.Batch {
			for _, it := range items {
				a.add(it.ID)
			}
		}
	default:
		for _, it := range resp.Items {
			a.add(it.ID)
		}
	}
	return a
}

// call sends tape request i over cl and tallies it: a transport error, a
// non-OK status or (on a checked request) a wrong answer is a failure.
func (st *serveState) call(cl *server.Client, i int, tl *tally) (*wire.Response, bool) {
	tl.attempted++
	resp, err := cl.Do(&st.reqs[i])
	switch {
	case err != nil:
		tl.fail("request %d (%v): %v", i, st.tp.ops[i].kind, err)
	case resp.Status != wire.StatusOK:
		tl.fail("request %d (%v): status %v: %s", i, st.tp.ops[i].kind, resp.Status, resp.Err)
	default:
		if want, ok := st.tp.wantOf(i); ok {
			if got := digest(resp); got != want {
				tl.fail("request %d (%v): got %d items digest %x, the unsharded tree gives %d items digest %x",
					i, st.tp.ops[i].kind, got.n, got.h, want.n, want.h)
				return resp, false
			}
		}
		return resp, true
	}
	return resp, false
}

// closedLoop sends requests [lo, hi) of the tape in a closed loop:
// `clients` goroutines, one connection each, client j sending requests
// lo+j, lo+j+clients, ..., each as soon as the previous reply is in.
func (st *serveState) closedLoop(clients, lo, hi int) tally {
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			conn := server.Dial(st.addr)
			defer hangUp(conn)
			for i := lo + cl; i < hi; i += clients {
				st.call(conn, i, &tallies[cl])
			}
		}(cl)
	}
	wg.Wait()
	var tl tally
	for _, t := range tallies {
		tl.merge(t)
	}
	return tl
}

// overLimit is the latency above which a phase-B request counts as
// having missed its limit.
const overLimit = 2 * time.Millisecond

func runServe(c *runCtx) error {
	st, err := repeatSetup(c, func() (*serveState, error) { return setupServe(c) })
	if err != nil {
		return err
	}
	defer st.close()
	// A round is phase A — closed loop, capacity: the tape once through —
	// and then phase B — open loop at the fixed rate, latency from due time:
	// the same schedule of the tape's first requests every round. The phases
	// take turns so that each meets the whole run's weather. Phase A keeps
	// the fastest half round's rate, not the requests' fastest times: with the
	// processors saturated by design, which request waits for one is chance,
	// and the per-request minimum would add up to a rate no round ever
	// reached. Phase B keeps each request's fastest time.
	var tl tally
	capacity := 0.0
	n := min(c.sz.openOps, len(st.reqs))
	// A request still unsent this long after the round's start is abandoned
	// and counts as failed: ten seconds past the end of the schedule, which
	// no stall of a shared box has come near.
	giveUp := time.Duration(float64(n)/float64(c.sz.serveRPS)*float64(time.Second)) + 10*time.Second
	conns := make([]*server.Client, c.p)
	tallies := make([]tally, c.p)
	for i := range conns {
		conns[i] = server.Dial(st.addr)
		defer hangUp(conns[i])
	}
	best := make([]int64, n)
	var lags []int64
	over, backlog := 0, 0
	clock := c.startRounds()
	for clock.next() {
		// The tape in two halves, each a rate of its own: capacity is a
		// maximum, and a maximum steadies with the number it is taken over.
		for _, part := range [][2]int{{0, len(st.reqs) / 2}, {len(st.reqs) / 2, len(st.reqs)}} {
			t0 := time.Now()
			tl.merge(st.closedLoop(c.p, part[0], part[1]))
			wall := time.Since(t0).Seconds()
			capacity = math.Max(capacity, float64(part[1]-part[0])/(wall*clock.speed()))
		}

		open, err := openLoop(n, float64(c.sz.serveRPS), c.p, giveUp, func(cl, i int) bool {
			_, ok := st.call(conns[cl], i, &tallies[cl])
			return ok
		})
		if err != nil {
			return err
		}
		speed := clock.speed()
		backlog = max(backlog, open.backlogMax)
		for i := 0; i < n; i++ {
			if !open.sent[i] {
				tl.attempted++
				tl.fail("request %d of phase B was never sent within %v of the round's start", i, giveUp)
				over++
				continue
			}
			lags = append(lags, open.lag[i])
			if !open.ok[i] || open.lat[i] > int64(overLimit) {
				over++
			}
			if lat := int64(float64(open.lat[i]) * speed); clock.round == 0 || lat < best[i] {
				best[i] = lat
			}
		}
	}
	for _, t := range tallies {
		tl.merge(t)
	}
	phaseBStat := digestLatencies(best)

	r := c.res
	r.setTally(tl)
	r.set("ops_per_s", capacity)
	r.setSampled("lat_p50_us", phaseBStat.p50, n)
	r.setSampled("lat_p99_us", phaseBStat.p99, n)
	r.set("bytes_per_entry", float64(st.fileSize)/float64(st.items))
	r.set("peak_rss_mb", peakRSSMiB())
	r.set("harness.speed", clock.meanSpeed())

	var reads int64
	for _, t := range st.trees {
		reads += t.Stats().DiskReads
	}
	r.set("accesses_per_op", perOp(float64(reads), tl.attempted))
	r.set("storage.reads_per_op", perOp(float64(reads), tl.attempted))
	slices.Sort(lags)
	r.setSampled("client.sched_lag_p99_us", float64(percentile(lags, 0.99))/1e3, len(lags))
	r.set("client.backlog_max", float64(backlog))
	r.set("client.over_limit_share", float64(over)/float64(max(n*(clock.round+1), 1)))
	if err := st.serverCounters(r, tl.attempted); err != nil {
		return err
	}

	if c.traced() && tl.failed == 0 {
		if err := traceServe(c, st, phaseBStat.p50); err != nil {
			return err
		}
	}
	return st.close()
}

// serverCounters reads the layers' own public counters: each shard
// server's Stats, the router's BackendStats and its metrics registry.
func (st *serveState) serverCounters(r *result, requests int64) error {
	var rejected, timedOut, failed, execCount uint64
	execNs := 0.0
	for _, s := range st.servers {
		s := s.Stats()
		rejected += s.Rejected
		timedOut += s.TimedOut
		failed += s.Failed
		execCount += s.Latency.Count
		execNs += float64(s.Latency.P50) * float64(s.Latency.Count)
	}
	r.set("server.rejected", float64(rejected))
	r.set("server.timed_out", float64(timedOut))
	r.set("server.failed", float64(failed))
	if execCount > 0 {
		// The shards' own p50s, weighted by how many requests each served.
		r.set("server.exec_p50_us", execNs/float64(execCount)/1e3)
	}
	var backendReqs, retries, ejections uint64
	for _, b := range st.router.BackendStats() {
		backendReqs += b.Requests
		retries += b.Retries
		ejections += b.Ejections
	}
	r.set("router.backend_reqs_per_op", perOp(float64(backendReqs), requests))
	r.set("router.retries", float64(retries))
	r.set("router.ejections", float64(ejections))

	var buf bytes.Buffer
	if err := st.router.Registry().WriteJSON(&buf); err != nil {
		return err
	}
	var families []struct {
		Name   string `json:"name"`
		Series []struct {
			Value float64  `json:"value"`
			Count uint64   `json:"count"`
			Sum   float64  `json:"sum_seconds"`
			P50   *float64 `json:"p50_seconds"`
		} `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &families); err != nil {
		return fmt.Errorf("router registry: %w", err)
	}
	for _, f := range families {
		if len(f.Series) == 0 {
			continue
		}
		s := f.Series[0]
		switch f.Name {
		case "strrouter_fanout_width_shards":
			// Widths are recorded as whole "seconds": the mean is in shards.
			if s.Count > 0 {
				r.set("router.fanout_mean", s.Sum/float64(s.Count))
			}
		case "strrouter_merge_seconds":
			if s.P50 != nil {
				r.set("router.merge_p50_us", *s.P50*1e6)
			}
		case "strrouter_unavailable_total":
			r.set("router.unavailable", s.Value)
		}
	}
	return nil
}

// traceServe is the hop ladder: one client replays the same requests
// against (L0) the shard trees directly, (L1) the shard servers, one
// connection each, and (L2) the router. Self times are L0, L1-L0 and
// L2-L1 on the requests that reach exactly one shard; on the others the
// router's parallel fan-out and the ladder's sequential one are not
// comparable, and only their routed round trip is reported.
func traceServe(c *runCtx, st *serveState, phaseBp50 float64) error {
	r := c.res
	n := min(c.sz.ladderOps, len(st.reqs))
	targets := make([][]int, n)
	for i := range targets {
		targets[i] = st.targets(&st.reqs[i])
	}
	var tl tally
	tr := newTracer(3*minRounds*n + 16)

	// ladderPass sends every ladder request through one hop, timing each,
	// after one untimed pass over them all: a hop's first thousand requests
	// run a fifth slower than its later ones (connections dialled, buffers
	// grown, the scheduler's threads awake), whichever hop goes first.
	// Like the measured run it goes round several times (minRounds) and
	// keeps each request's fastest time.
	// With spans on, every timing is also recorded as a span.
	ladderPass := func(kind spanKind, spans bool, send func(i int) error) ([]int64, memDelta, time.Duration, error) {
		for warm := 0; warm < n; warm++ {
			if err := send(warm); err != nil {
				return nil, memDelta{}, 0, err
			}
		}
		lat := make([]int64, n)
		tr.on = spans
		defer func() { tr.on = false }()
		before, start := readMem(), time.Now()
		for rep := 0; rep < minRounds; rep++ {
			for i := 0; i < n; i++ {
				tr.op, tr.arg = int32(i), uint8(st.tp.ops[i].kind)
				t0 := time.Now()
				sp := tr.begin(kind)
				err := send(i)
				tr.end(sp)
				if d := int64(time.Since(t0)); rep == 0 || d < lat[i] {
					lat[i] = d
				}
				if err != nil {
					return nil, memDelta{}, 0, err
				}
			}
		}
		return lat, readMem().since(before), time.Since(start), nil
	}

	execs := make([]*publicExec, len(st.trees))
	for s, t := range st.trees {
		execs[s] = newPublicExec(t, st.tp, c.p)
	}
	l0, _, _, err := ladderPass(spHopTree, true, func(i int) error {
		for _, s := range targets[i] {
			if _, err := execs[s].do(&st.tp.ops[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ladder L0: %w", err)
	}

	direct := make([]*server.Client, len(st.shardTo))
	for s, addr := range st.shardTo {
		direct[s] = server.Dial(addr)
		defer hangUp(direct[s])
	}
	l1, directMem, _, err := ladderPass(spHopShard, true, func(i int) error {
		for _, s := range targets[i] {
			resp, err := direct[s].Do(&st.reqs[i])
			if err != nil {
				return err
			}
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("shard %d: status %v: %s", s, resp.Status, resp.Err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ladder L1: %w", err)
	}

	routed := server.Dial(st.addr)
	defer hangUp(routed)
	resps := make([]*wire.Response, n)
	viaRouter := func(i int) error {
		resp, ok := st.call(routed, i, &tl)
		if !ok {
			return errors.New(tl.firstFailure)
		}
		resps[i] = resp
		return nil
	}
	// The routed hop runs twice, without spans and with: the difference is
	// what recording costs.
	l2plain, _, plainWall, err := ladderPass(spHopRouter, false, viaRouter)
	if err != nil {
		return fmt.Errorf("ladder L2: %w", err)
	}
	l2, _, tracedWall, err := ladderPass(spHopRouter, true, viaRouter)
	if err != nil {
		return fmt.Errorf("ladder L2: %w", err)
	}
	r.set("harness.trace_overhead_pct", 100*(tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds())

	backendCalls := 0
	var single []int // the requests that reach exactly one shard
	var fanAll []int64
	for i := 0; i < n; i++ {
		backendCalls += len(targets[i])
		switch len(targets[i]) {
		case 1:
			single = append(single, i)
		case len(st.trees):
			fanAll = append(fanAll, l2[i])
		}
	}
	if len(single) == 0 || len(fanAll) == 0 {
		return fmt.Errorf("ladder: %d one-shard and %d all-shard requests among %d; the tape must have both", len(single), len(fanAll), n)
	}
	pick := func(f func(i int) int64) []int64 {
		out := make([]int64, len(single))
		for k, i := range single {
			out[k] = f(i)
		}
		return out
	}
	fan1 := pick(func(i int) int64 { return l2[i] })
	r.setSampled("server.direct_rtt_p50_us", p50us(pick(func(i int) int64 { return l1[i] })), len(single))
	r.setSampled("server.self_p50_us", p50us(pick(func(i int) int64 { return l1[i] - l0[i] })), len(single))
	r.setSampled("router.rtt_p50_us", p50us(l2), n)
	r.setSampled("router.self_p50_us", p50us(pick(func(i int) int64 { return l2[i] - l1[i] })), len(single))
	r.setSampled("router.rtt_p50_us_fan1", p50us(fan1), len(single))
	r.setSampled("router.rtt_p50_us_fan3", p50us(fanAll), len(fanAll))
	r.set("server.allocs_per_req", float64(directMem.mallocs)/float64(max(backendCalls*minRounds, 1)))

	// The codec, on the ladder's own messages.
	sample := min(n, 256)
	reqs := make([]*wire.Request, sample)
	var respBytes, itemsPerResp float64
	for i := 0; i < sample; i++ {
		reqs[i] = &st.reqs[i]
	}
	for _, resp := range resps {
		b, err := wire.AppendResponse(nil, resp)
		if err != nil {
			return err
		}
		respBytes += float64(len(b))
		itemsPerResp += float64(digest(resp).n)
	}
	respBytes /= float64(n)
	itemsPerResp /= float64(n)
	r.set("wire.response_bytes_per_op", respBytes)
	pages, err := capturePages(st.files[0], probePages)
	if err != nil {
		return err
	}
	r.setAll(probeWire(c, reqs, resps[:sample]))
	windows := make([]strtree.Rect, 0, 512)
	for i := range st.tp.ops {
		if o := &st.tp.ops[i]; o.kind == opSearch && len(windows) < cap(windows) {
			windows = append(windows, geom.R2(o.x0, o.y0, o.x1, o.y1))
		}
	}
	r.setAll(probeBatch(c, st.trees[0], windows))
	r.setAll(probeShardedBuffer(c, pages))
	r.set("harness.timer_ns", timerCostNs())

	// Both ends of a hop encode one message and parse the other; what that
	// costs a request follows from the items its response carries.
	v := r.Values
	codecNs := func(i int) int64 {
		perItem := v["wire.append_response_ns_per_item"] + v["wire.parse_response_ns_per_item"]
		return int64(v["wire.append_request_ns"] + v["wire.parse_request_ns"] + float64(digest(resps[i]).n)*perItem)
	}
	// Means, not medians: the means of the hops' differences add up to the
	// mean round trip exactly, so the remainder is only what separates the
	// passes recorded with spans from the ones without.
	rows := []reconRow{
		{"tree: strtree+rtree+node+buffer (L0)", meanUs(pick(func(i int) int64 { return l0[i] }))},
		{"wire codec, one hop (probes x items)", meanUs(pick(codecNs))},
		{"server: socket, framing, admission (L1-L0-codec)", meanUs(pick(func(i int) int64 { return l1[i] - l0[i] - codecNs(i) }))},
		{"router: second hop, fan-out, merge (L2-L1)", meanUs(pick(func(i int) int64 { return l2[i] - l1[i] }))},
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "\nhop ladder: %d requests, one client; %d reach one shard, %d reach all %d; %.0f B and %.1f items per response\n",
		n, len(single), len(fanAll), len(st.trees), respBytes, itemsPerResp)
	fmt.Fprintf(w, "phase B (open loop at %d req/s, %d clients) saw p50 %.1f us for the whole mix; the ladder's routed p50 for it is %.1f us\n",
		c.sz.serveRPS, c.p, phaseBp50, p50us(l2))
	unexplained := printRecon(w, "mean round trip of a one-shard request through the router", "us", rows,
		meanUs(pick(func(i int) int64 { return l2plain[i] })))
	r.set("harness.unexplained_pct", unexplained)
	if err := w.Flush(); err != nil {
		return err
	}

	return saveTrace(c, tr)
}

// targets mirrors the router's pruning: the shards a request must visit.
func (st *serveState) targets(req *wire.Request) []int {
	switch req.Op {
	case wire.OpSearch, wire.OpCount:
		return st.m.OverlapRect(req.Query)
	case wire.OpSearchPoint:
		return st.m.OverlapPoint(req.Point)
	case wire.OpBatch:
		var out []int
		for _, id := range st.m.All() {
			mbr := st.m.Shards[id].MBR.Rect()
			for _, q := range req.Batch {
				if mbr.Intersects(q) {
					out = append(out, id)
					break
				}
			}
		}
		return out
	default:
		return st.m.All()
	}
}
