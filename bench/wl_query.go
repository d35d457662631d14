package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"strtree"
	"strtree/internal/node"
)

// tracedShare is the part of a tape the traced pass replays: its first
// fifth.
const tracedShare = 5

// query_hot and query_cold: the library read path, one goroutine, closed
// loop, the same tape over the same STR-packed file. They differ only in
// BufferPages: 16 384 holds the whole 9 902-page tree, so after warm-up
// every fetch is a hit and storage does nothing; 250 is the paper's 2.5 %
// buffer, so the miss path (eviction + ReadPage) runs on most node visits
// and accesses_per_op is the paper's own metric.

type queryState struct {
	path  string
	pages int
	hot   bool
	items int
	tp    *tape
	tree  *strtree.Tree
	ex    *publicExec
}

func (st *queryState) close() error { return st.tree.Close() }

func setupQuery(c *runCtx, cold bool) (*queryState, error) {
	entries, items := genData(c.sz.items, c.cfg.seed)
	st := &queryState{path: c.path("index.str"), pages: c.sz.hotPages, hot: !cold, items: len(items)}
	if cold {
		st.pages = c.sz.coldPages
	}
	settle()
	if err := buildIndex(st.path, items, c.p); err != nil {
		return nil, err
	}
	settle()
	st.tp = genQueryTape(c.cfg.seed, c.sz.queryOps, c.sz.querySamples)
	st.tp.fillOracle(flatten(entries))
	entries, items = nil, nil
	settle()
	tree, err := strtree.Open(st.path, strtree.Options{BufferPages: st.pages})
	if err != nil {
		return nil, err
	}
	st.tree = tree
	st.ex = newPublicExec(tree, st.tp, 1)
	if err := warmQuery(st.ex, st.tp, c.sz.warmOps, st.hot, func() error {
		return tree.Scan(func(strtree.Item) bool { return true })
	}); err != nil {
		return nil, err
	}
	tree.ResetStats()
	return st, nil
}

// warmQuery brings a stack to the state the measured pass starts from:
// on the hot workload one full Scan (every page resident), on both a
// prefix of the tape (traverser pool filled, LRU in steady state). Every
// stack the traced pass builds is warmed by this same function, which is
// what lets their access counts be compared exactly.
func warmQuery(ex executor, tp *tape, warmOps int, hot bool, scan func() error) error {
	if hot {
		if err := scan(); err != nil {
			return err
		}
	}
	var tl tally
	runOps(ex, tp, 0, warmOps, make([]int64, warmOps), nil, &tl)
	if tl.failed > 0 {
		return fmt.Errorf("warm-up: %s", tl.firstFailure)
	}
	return nil
}

func runQuery(c *runCtx, cold bool) error {
	st, err := repeatSetup(c, func() (*queryState, error) { return setupQuery(c, cold) })
	if err != nil {
		return err
	}
	defer st.close()
	tp, n := st.tp, len(st.tp.ops)

	var tl tally
	lat, best := make([]int64, n), make([]int64, n)
	// The traced pass compares every answer and the access count of the
	// tape's first ops with the public API's, recorded in round 0.
	prefix := n / tracedShare
	got := make([]answer, prefix)
	var prefixIO strtree.IOStats
	var prefixWall time.Duration

	readBefore, memBefore := st.tree.ReadPathStats(), readMem()
	var io strtree.IOStats
	var mem memDelta
	var read strtree.ReadPathStats
	clock := c.startRounds()
	for clock.next() {
		round := clock.round
		var g []answer
		if round == 0 {
			g = got
		}
		wall := runOps(st.ex, tp, 0, prefix, lat[:prefix], g, &tl)
		if round == 0 {
			prefixIO = st.tree.Stats()
		}
		if round == 0 || (round < minRounds && wall < prefixWall) {
			prefixWall = wall // the fastest of as many passes over the prefix as the replays make
		}
		runOps(st.ex, tp, prefix, n, lat[prefix:], nil, &tl)
		keepFastest(best, lat, clock.speed(), round == 0)
		if round == minRounds-1 {
			// Counts cover the rounds every run makes: the same ops on every machine.
			io, mem, read = st.tree.Stats(), readMem().since(memBefore), st.tree.ReadPathStats()
		}
	}
	ops := int64(minRounds * n)

	r := c.res
	r.setTally(tl)
	d := digestLatencies(best)
	r.set("ops_per_s", d.rate())
	r.setSampled("lat_p50_us", d.p50, n)
	r.setSampled("lat_p99_us", d.p99, n)
	size, err := fileSize(st.path)
	if err != nil {
		return err
	}
	r.set("bytes_per_entry", float64(size)/float64(st.items))
	r.set("peak_rss_mb", peakRSSMiB())
	r.set("harness.speed", clock.meanSpeed())

	r.setIO(io, ops)
	r.set("rtree.visits_per_op", perOp(float64(read.ViewPages-readBefore.ViewPages), ops))
	r.set("rtree.pool_misses", float64(read.TraverserAllocs-readBefore.TraverserAllocs))
	r.set("rtree.allocs_per_op", perOp(float64(mem.mallocs), ops))
	r.set("rtree.bytes_per_op", perOp(float64(mem.bytes), ops))
	r.set("rtree.height", float64(st.tree.Height()))

	if !c.traced() {
		return nil
	}
	return traceQuery(c, st, got, prefixIO.DiskReads, prefixWall)
}

// traceQuery is the traced second pass of the query workloads: the same
// tape prefix replayed on a stack assembled from internal packages, once
// bare (the facade's cost is the public API's time minus this) and once
// with the timing wrappers in place (layer self times), each required to
// give the public API's answers and the public API's access count.
func traceQuery(c *runCtx, st *queryState, got []answer, publicReads int64, publicWall time.Duration) error {
	r, tp := c.res, st.tp
	n := len(got)
	lat := make([]int64, n)

	replay := func(tr *tracer) (*innerStack, time.Duration, error) {
		stack, err := openInner(st.path, st.pages, tr)
		if err != nil {
			return nil, 0, err
		}
		ex := newInnerExec(stack.tree, nil)
		if err := warmQuery(ex, tp, c.sz.warmOps, st.hot, func() error {
			return stack.tree.Scan(func(node.Entry) bool { return true })
		}); err != nil {
			return nil, 0, err
		}
		stack.arm(ex, tr)
		back := make([]answer, n)
		var tl tally
		wall := runOps(ex, tp, 0, n, lat, back, &tl)
		if tr != nil {
			tr.on = false
		}
		if err := sameAnswers(back, got, tl); err != nil {
			return nil, 0, err
		}
		if reads := stack.pool.Stats().DiskReads; reads != publicReads {
			return nil, 0, fmt.Errorf("traced replay: %d accesses, the public API made %d over the same ops", reads, publicReads)
		}
		return stack, wall, nil
	}

	// Each replay runs minRounds times on a stack of its own and the fastest
	// stands, like the public API's own pass over these ops.
	var bareWall, tracedWall time.Duration
	var stack *innerStack
	var tr *tracer
	// Spans per traced op: the op, its fetches, their reads. Sized from
	// the public pass's own counts, with room to spare.
	perOpSpans := 2 + 2*int(r.Values["buffer.logical_reads_per_op"]+1)
	for round := 0; round < minRounds; round++ {
		bare, wall, err := replay(nil)
		if err != nil {
			return err
		}
		if err := bare.close(); err != nil {
			return err
		}
		if round == 0 || wall < bareWall {
			bareWall = wall
		}
		t := newTracer(perOpSpans*n + 1024)
		traced, wall, err := replay(t)
		if err != nil {
			return err
		}
		if round > 0 && wall >= tracedWall {
			if err := traced.close(); err != nil {
				return err
			}
			continue
		}
		if stack != nil {
			if err := stack.close(); err != nil {
				return err
			}
		}
		stack, tr, tracedWall = traced, t, wall
	}
	defer stack.close()
	reads, _ := stack.pager.counts()
	if reads != publicReads {
		return fmt.Errorf("traced replay: pager served %d reads, accesses_per_op counted %d", reads, publicReads)
	}

	ops := float64(n)
	publicUs := publicWall.Seconds() * 1e6 / ops
	bareUs := bareWall.Seconds() * 1e6 / ops
	r.set("harness.trace_overhead_pct", 100*(tracedWall.Seconds()-bareWall.Seconds())/bareWall.Seconds())
	r.set("node.entries_tested_per_op", float64(stack.mgr.entriesSeen)/ops)
	var items int64
	for _, a := range got {
		items += int64(a.n)
	}
	if stack.mgr.entriesSeen > 0 {
		r.set("node.match_ratio", float64(items)/float64(stack.mgr.entriesSeen))
	}

	pages, err := capturePages(st.path, probePages)
	if err != nil {
		return err
	}
	r.setAll(probeNodeRead(c, pages))
	r.setAll(probeBuffer(c, pages))
	r.setAll(probeShardedBuffer(c, pages))
	r.setAll([]probe{probeFacade(c, st.path, tp)})
	timer := timerCostNs()
	r.set("harness.timer_ns", timer)

	rows := spanMetrics(r, tr.spans, timer, ops)
	// Split rtree+node with the probes: each visit re-validates its page
	// (MakeView) and offers every entry to the intersection kernel.
	visits := float64(stack.mgr.nodeFetches) / ops
	nodeUs := (visits*r.Values["node.makeview_ns_per_page"] + r.Values["node.entries_tested_per_op"]*r.Values["node.intersects_ns_per_entry"]) / 1e3
	for i := range rows {
		if rows[i].name == layerNames[layRtree] {
			rows[i] = reconRow{"rtree traversal", rows[i].us - nodeUs}
		}
	}
	rows = append(rows, reconRow{"node kernels (visits x probes)", nodeUs},
		reconRow{"strtree facade (probe)", r.Values["strtree.facade_ns_per_op"] / 1e3})

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "\ntraced pass: %d ops (%d spans, %d dropped); public %.2f us/op, bare %.2f, traced %.2f\n",
		n, len(tr.spans), tr.dropped, publicUs, bareUs, tracedWall.Seconds()*1e6/ops)
	unexplained := printRecon(w, "mean time of one op, "+c.cfg.workload, "us", rows, publicUs)
	r.set("harness.unexplained_pct", unexplained)
	if err := w.Flush(); err != nil {
		return err
	}
	return saveTrace(c, tr)
}

// spanMetrics derives the traced-pass metrics shared by the query and
// mutate workloads from the recorded spans, and returns the layer rows of
// the reconciliation (mean microseconds per op over the `ops` traced),
// including the negative row for the time the span timers themselves
// added.
func spanMetrics(r *result, spans []span, timerNs, ops float64) []reconRow {
	byKind := selfTimes(spans)
	byLayer := layerSelf(byKind)
	total := 0.0
	for _, ns := range byLayer {
		total += float64(ns)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 / ops }

	reads, writes := countSpans(spans, spRead), countSpans(spans, spWrite)
	if reads > 0 {
		r.set("storage.read_us_per_page", float64(byKind[spRead])/1e3/float64(reads))
	}
	if writes > 0 {
		r.set("storage.write_us_per_page", float64(byKind[spWrite])/1e3/float64(writes))
	}
	if total > 0 {
		r.set("storage.self_share", float64(byLayer[layStorage])/total)
	}
	r.set("buffer.self_us_per_op", us(byLayer[layBuffer]))
	r.set("rtree.self_us_per_op", us(byLayer[layRtree]))
	if fetches := countSpans(spans, spFetch) + countSpans(spans, spFetchMut); fetches > 0 {
		r.set("rtree.self_ns_per_visit", float64(byKind[spOp])/float64(fetches))
	}
	for kind, name := range map[opKind]string{
		opPoint: "rtree.point_p50_us", opSearch: "rtree.search_p50_us", opCount: "rtree.count_p50_us",
		opNearest: "rtree.nearest_p50_us", opInsert: "rtree.insert_p50_us", opDelete: "rtree.delete_p50_us",
	} {
		if d := spanDurations(spans, spOp, int(kind)); len(d) > 0 {
			r.setSampled(name, p50us(d), len(d))
		}
	}
	rows := make([]reconRow, 0, numLayers+1)
	for l, ns := range byLayer {
		if ns > 0 {
			rows = append(rows, reconRow{layerNames[l], us(ns)})
		}
	}
	return append(rows, reconRow{"span timers (tracing's own cost)", -float64(len(spans)) * timerNs / 1e3 / ops})
}

// saveTrace writes the spans to <out>/trace-<workload>.json.
func saveTrace(c *runCtx, tr *tracer) error {
	if err := os.MkdirAll(c.cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.cfg.out, "trace-"+c.cfg.workload+".json")
	if err := writeTrace(path, c.cfg.workload, tr); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
