package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"time"

	"strtree"
	"strtree/internal/buffer"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// build: the paper's subject. Repeated Create + BulkLoad(PackSTR) + Close
// of the first buildItems items at Workers = P, in turn with repeated
// BulkLoadExternal of the first extItems with a RunSize that forces eight
// spilled runs. Only pack/psort/extsort, rtree's bulk loader and its
// write-behind, node.Marshal and storage writes run; the read path does
// nothing. A single build varies by a quarter on a shared 2-core box, so
// the two kinds take turns until -seconds are up, each built at least
// buildMin (extMin) times, and — as every workload keeps each op's fastest
// time over its rounds — the fastest build stands.
//
// One op is one whole build. ops_per_s is entries per second of the
// in-memory build; lat_p50_us is the in-memory build's time; lat_p99_us —
// the slow tier, as on every workload — is the external build's.

type buildState struct {
	entries []node.Entry
	items   []strtree.Item
}

func (*buildState) close() error { return nil }

// spillDir is where every external build spills: a directory of its own,
// so that the traced run's sampler sees spill files and nothing else.
func spillDir(c *runCtx) string { return c.path("spill") }

func setupBuild(c *runCtx) (*buildState, error) {
	if err := os.MkdirAll(spillDir(c), 0o755); err != nil {
		return nil, err
	}
	entries, items := genData(c.sz.items, c.cfg.seed)
	st := &buildState{entries: entries[:c.sz.buildItems], items: items[:c.sz.buildItems]}
	settle()
	// One discarded build: page cache, heap and the sort kernel's
	// scratch are warm before the first timed one.
	if _, err := buildOnce(c, st.items, false, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// builtTree is what one build leaves behind for checking.
type builtTree struct {
	dur     time.Duration // Create + load + Close, checks excluded
	speed   float64       // the machine's while it ran (buildChecked)
	sum     uint64        // FNV-64a of the index file
	size    int64
	writes  int64 // pager page writes
	stats   strtree.BuildStats
	ext     strtree.ExternalSortStats
	metrics strtree.Metrics
	height  int
}

// buildOnce times one build through the public API. check, when non-nil,
// runs between the load and the Close with the clock stopped.
func buildOnce(c *runCtx, items []strtree.Item, external bool, check func(*strtree.Tree) error) (builtTree, error) {
	var b builtTree
	path := c.path("build.str")
	t0 := time.Now()
	tree, err := strtree.Create(path, strtree.Options{Workers: c.p})
	if err != nil {
		return b, err
	}
	if external {
		i := 0
		err = tree.BulkLoadExternal(func() (strtree.Item, bool) {
			if i == len(items) {
				return strtree.Item{}, false
			}
			i++
			return items[i-1], true
		}, strtree.ExternalOptions{RunSize: c.sz.extRun, TmpDir: spillDir(c), Workers: c.p})
	} else {
		err = tree.BulkLoad(items, strtree.PackSTR)
	}
	b.dur = time.Since(t0)
	if err != nil {
		return b, errors.Join(err, tree.Close())
	}
	b.writes, b.stats, b.ext, b.height = tree.Stats().DiskWrites, tree.LastBuildStats(), tree.LastExternalSortStats(), tree.Height()
	if check != nil {
		if err := check(tree); err != nil {
			return b, errors.Join(err, tree.Close())
		}
		if b.metrics, err = tree.Metrics(); err != nil {
			return b, errors.Join(err, tree.Close())
		}
	}
	t1 := time.Now()
	if err := tree.Close(); err != nil {
		return b, err
	}
	b.dur += time.Since(t1)
	if b.sum, err = fileSum(path); err != nil {
		return b, err
	}
	b.size, err = fileSize(path)
	return b, err
}

// buildChecked runs one more timed build of a kind that has made the
// builds in prior. The first of a kind is checked with
// CheckPackedInvariants; every later one must produce a byte-identical
// file.
func buildChecked(c *runCtx, items []strtree.Item, external bool, prior []builtTree, tl *tally) builtTree {
	kind := "in-memory"
	if external {
		kind = "external"
	}
	var check func(*strtree.Tree) error
	if len(prior) == 0 {
		check = (*strtree.Tree).CheckPackedInvariants
	}
	tl.attempted++
	before := machineSpeed()
	b, err := buildOnce(c, items, external, check)
	b.speed = (before + machineSpeed()) / 2
	switch {
	case err != nil:
		tl.fail("%s build %d: %v", kind, len(prior), err)
	case len(prior) > 0 && b.sum != prior[0].sum:
		tl.fail("%s build %d: file checksum %x differs from the first build's %x", kind, len(prior), b.sum, prior[0].sum)
	}
	return b
}

// atRefSpeed is the build's duration restated at the reference box's
// speed, as every timed end-to-end metric is.
func (b builtTree) atRefSpeed() time.Duration { return time.Duration(float64(b.dur) * b.speed) }

// fastest returns the build that took least time at the reference speed.
func fastest(bs []builtTree) builtTree {
	best := bs[0]
	for _, b := range bs[1:] {
		if b.atRefSpeed() < best.atRefSpeed() {
			best = b
		}
	}
	return best
}

func runBuild(c *runCtx) error {
	st, err := repeatSetup(c, func() (*buildState, error) { return setupBuild(c) })
	if err != nil {
		return err
	}
	var tl tally
	// A round is two in-memory builds and one external, about as long each
	// way; the kinds take turns so that each meets the whole run's weather,
	// not one half's. A failed build would only repeat, so it ends the run.
	extItems := st.items[:c.sz.extItems]
	var mem, ext []builtTree
	deadline := time.Now().Add(c.measureFor())
	for i := 0; tl.failed == 0 && (len(mem) < c.sz.buildMin || len(ext) < c.sz.extMin || time.Now().Before(deadline)); i++ {
		if i%3 == 2 {
			ext = append(ext, buildChecked(c, extItems, true, ext, &tl))
		} else {
			mem = append(mem, buildChecked(c, st.items, false, mem, &tl))
		}
	}
	if len(ext) == 0 {
		return fmt.Errorf("build: %s", tl.firstFailure)
	}

	r := c.res
	r.setTally(tl)
	memBest := fastest(mem)
	memS, extS := memBest.atRefSpeed().Seconds(), fastest(ext).atRefSpeed().Seconds()
	n := float64(len(st.items))
	r.set("ops_per_s", n/memS)
	r.setSampled("lat_p50_us", memS*1e6, len(mem))
	r.setSampled("lat_p99_us", extS*1e6, len(ext))
	r.set("bytes_per_entry", float64(mem[0].size)/n)
	r.set("peak_rss_mb", peakRSSMiB())
	speed := 0.0
	for _, kind := range [][]builtTree{mem, ext} {
		for _, b := range kind {
			speed += b.speed
		}
	}
	r.set("harness.speed", speed/float64(len(mem)+len(ext)))

	r.set("ext_entries_per_s", float64(len(extItems))/extS)
	r.set("write_pages_per_op", float64(mem[0].writes)/n)
	r.set("storage.writes_per_op", float64(mem[0].writes)/n)
	r.set("rtree.build_order_s", memBest.stats.Order.Seconds())
	r.set("rtree.build_write_s", memBest.stats.Write.Seconds())
	peak := 0
	for _, b := range mem {
		peak = max(peak, b.stats.QueuePeak)
	}
	r.set("rtree.build_queue_peak", float64(peak))
	r.set("rtree.height", float64(mem[0].height))
	r.set("pack.leaf_area", mem[0].metrics.LeafArea)
	r.set("pack.leaf_perimeter", mem[0].metrics.LeafPerimeter)
	r.set("extsort.runs_spilled", float64(ext[0].ext.RunsSpilled))

	if !c.traced() || tl.failed > 0 {
		return nil
	}
	return traceBuild(c, st, extItems, memBest.dur.Seconds())
}

// tracedBuild builds once more on a stack assembled from the internal
// packages, with a span around the Item-to-Entry conversion (the facade's
// work), around Orderer.Order (pack + psort) and around every pager call.
// The write-behind goroutine reaches the pager while the packer runs, so
// spans hang flat off the build's root span (index 0) and may overlap.
func tracedBuild(c *runCtx, st *buildState, path string) (*tracer, error) {
	tr := newTracer(1 << 16)
	tr.on, tr.flat = true, true
	root := tr.begin(spBuild)
	tr.mu.Lock()
	tr.root = root
	tr.mu.Unlock()
	fp, err := storage.CreateFilePager(path, storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	pager := &timingPager{Pager: fp, tr: tr}
	tree, err := rtree.Create(buffer.NewPool(pager, 256), rtree.Config{Dims: 2, Workers: c.p})
	if err != nil {
		return nil, errors.Join(err, fp.Close())
	}
	conv := tr.begin(spConvert)
	entries := make([]node.Entry, len(st.items))
	for i, it := range st.items {
		entries[i] = node.Entry{Rect: it.Rect, Ref: it.ID}
	}
	tr.end(conv)
	err = tree.BulkLoad(entries, timingOrderer{Orderer: pack.STR{Workers: c.p}, tr: tr})
	err = errors.Join(err, tree.Flush(), pager.Sync(), fp.Close())
	tr.end(root)
	tr.on = false
	return tr, err
}

// traceBuild is the build workload's traced pass: minRounds traced builds
// (the fastest stands, as for the untraced ones), one more external build
// under a heap and spill-directory sampler, and the build path's probes.
func traceBuild(c *runCtx, st *buildState, extItems []strtree.Item, untracedS float64) error {
	r := c.res
	path := c.path("traced.str")
	const root = 0
	var tr *tracer
	for round := 0; round < minRounds; round++ {
		t, err := tracedBuild(c, st, path)
		if err != nil {
			return err
		}
		if tr == nil || t.spans[root].End-t.spans[root].Start < tr.spans[root].End-tr.spans[root].Start {
			tr = t
		}
	}
	tracedSum, err := fileSum(path)
	if err != nil {
		return err
	}
	check, err := buildOnce(c, st.items, false, nil)
	if err != nil {
		return err
	}
	if check.sum != tracedSum {
		return fmt.Errorf("traced build: file checksum %x differs from the public API's %x", tracedSum, check.sum)
	}

	// Critical-path attribution. The packer's spans block the build; page
	// writes mostly hide behind it, so storage is charged only for the
	// part of the build no packer span covers.
	self := spanSelf(tr.spans)
	byKind := selfTimes(tr.spans)
	wall := float64(tr.spans[root].End-tr.spans[root].Start) / 1e9
	rootSelf := float64(self[root]) / 1e9
	order, convert := float64(byKind[spOrder])/1e9, float64(byKind[spConvert])/1e9
	storageExposed := wall - rootSelf - order - convert
	writes := countSpans(tr.spans, spWrite)
	if writes > 0 {
		r.set("storage.write_us_per_page", float64(byKind[spWrite])/1e3/float64(writes))
	}
	if d := spanDurations(tr.spans, spSync, -1); len(d) > 0 {
		r.set("storage.sync_ms", float64(d[len(d)-1])/1e6)
	}
	r.set("storage.self_share", storageExposed/wall)
	r.set("harness.trace_overhead_pct", 100*(wall-untracedS)/untracedS)
	timer := timerCostNs()
	r.set("harness.timer_ns", timer)

	// One external build under the sampler.
	watch := watchHeap(spillDir(c))
	_, err = buildOnce(c, extItems, true, nil)
	watch.halt()
	if err != nil {
		return err
	}
	r.set("extsort.heap_peak_mb", watch.heapMiB)
	r.set("extsort.spill_mb", watch.dirMiB)

	pages, err := capturePages(path, probePages)
	if err != nil {
		return err
	}
	r.setAll(probePack(c, st.entries))
	r.setAll(probeNodeCodec(c, pages))

	rows := []reconRow{
		{"pack+psort (Order spans)", order},
		{"strtree facade (Item -> Entry)", convert},
		{"storage (writes and sync not hidden by write-behind)", storageExposed},
		{"rtree+node+buffer (loader, Marshal, remainder)", rootSelf},
		{"span timers (tracing's own cost)", -float64(len(tr.spans)) * timer / 1e9},
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "\ntraced build: %d spans (%d dropped), %d page writes; traced %.3f s, fastest untraced %.3f s\n",
		len(tr.spans), tr.dropped, writes, wall, untracedS)
	unexplained := printRecon(w, "wall time of one in-memory build", "s", rows, untracedS)
	r.set("harness.unexplained_pct", unexplained)
	if err := w.Flush(); err != nil {
		return err
	}
	return saveTrace(c, tr)
}
