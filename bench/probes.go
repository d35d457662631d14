package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"strtree"
	"strtree/internal/buffer"
	"strtree/internal/extsort"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/psort"
	"strtree/internal/rtree"
	"strtree/internal/server/wire"
	"strtree/internal/storage"
)

// Layer probes: small timed loops that call one layer's public functions
// directly, on pages and messages taken from the workload's own index
// and tape. Each figure is the best of probeLoops loops of at least
// probeMin each — the minimum, because a probe asks what the code costs,
// not what the neighbours on a shared box add to it.

type probe struct {
	name  string
	value float64
}

// probeSink keeps probe results alive so the compiler cannot drop the
// calls being timed.
var probeSink uint64

// best times body — which does `units` units of the probed work per call
// and returns only the time spent on them — repeatedly, and returns the
// lowest nanoseconds per unit over the loops.
func (c *runCtx) best(units int, body func() time.Duration) float64 {
	lowest := 0.0
	for l := 0; l < c.sz.probeLoops; l++ {
		var spent time.Duration
		calls := 0
		for spent < c.sz.probeMin {
			spent += body()
			calls++
		}
		if ns := float64(spent) / float64(calls*units); l == 0 || ns < lowest {
			lowest = ns
		}
	}
	return lowest
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// capturePages reads the first n node pages of an index file. A bulk
// load writes leaves first, so these are full leaf pages.
func capturePages(path string, n int) (_ [][]byte, err error) {
	fp, err := storage.OpenFilePager(path, storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, fp.Close()) }()
	if avail := fp.NumPages() - 1; n > avail {
		n = avail
	}
	pages := make([][]byte, 0, n)
	for id := 1; id <= n; id++ { // page 0 is the tree's meta page
		buf := make([]byte, storage.DefaultPageSize)
		if err := fp.ReadPage(storage.PageID(id), buf); err != nil {
			return nil, err
		}
		if _, err := node.MakeView(buf); err != nil {
			continue // a free or non-node page: not probe material
		}
		pages = append(pages, buf)
	}
	if len(pages) == 0 {
		return nil, fmt.Errorf("probe: no node pages in %s", path)
	}
	return pages, nil
}

// probePages is how many pages a node or buffer probe cycles through:
// 1 MiB, more than the L2 cache a page-at-a-time kernel would hide in.
const probePages = 256

// probeFailure carries a probe's error up to runOne, which recovers it
// into the run's error: a probe that cannot run is a broken benchmark,
// not a zero, and the scratch directory must still be removed.
type probeFailure struct{ err error }

func mustProbe(err error) {
	if err != nil {
		panic(probeFailure{fmt.Errorf("probe: %w", err)})
	}
}

// probeMakeView times page validation — CRC plus per-entry checks — which
// every node visit pays, read or write, hit or miss.
func probeMakeView(c *runCtx, pages [][]byte) probe {
	return probe{"node.makeview_ns_per_page", c.best(len(pages), func() time.Duration {
		return timed(func() {
			for _, p := range pages {
				v, _ := node.MakeView(p)
				probeSink += uint64(v.Count())
			}
		})
	})}
}

// probeNodeRead times the read path's three kernels: page validation, the
// window intersection test and the nearest-neighbour distance.
func probeNodeRead(c *runCtx, pages [][]byte) []probe {
	views := make([]node.View, len(pages))
	entries := 0
	for i, p := range pages {
		views[i], _ = node.MakeView(p)
		entries += views[i].Count()
	}
	q := geom.R2(0.25, 0.25, 0.5, 0.5)
	pt := geom.Pt2(0.4, 0.6)
	return []probe{
		probeMakeView(c, pages),
		{"node.intersects_ns_per_entry", c.best(entries, func() time.Duration {
			return timed(func() {
				hits := 0
				for _, v := range views {
					for i := 0; i < v.Count(); i++ {
						if v.IntersectsQuery(q, i) {
							hits++
						}
					}
				}
				probeSink += uint64(hits)
			})
		})},
		{"node.mindist_ns_per_entry", c.best(entries, func() time.Duration {
			return timed(func() {
				sum := 0.0
				for _, v := range views {
					for i := 0; i < v.Count(); i++ {
						sum += v.MinDist(pt, i)
					}
				}
				probeSink += uint64(sum)
			})
		})},
	}
}

// probeNodeCodec times the structural mutation tier's (and the bulk
// loader's) codec: whole-page Unmarshal and Marshal.
func probeNodeCodec(c *runCtx, pages [][]byte) []probe {
	var n node.Node
	out := make([]byte, storage.DefaultPageSize)
	nodes := make([]node.Node, len(pages))
	for i, p := range pages {
		mustProbe(node.Unmarshal(p, &nodes[i]))
	}
	return []probe{
		{"node.unmarshal_ns_per_page", c.best(len(pages), func() time.Duration {
			return timed(func() {
				for _, p := range pages {
					mustProbe(node.Unmarshal(p, &n))
				}
			})
		})},
		{"node.marshal_ns_per_page", c.best(len(nodes), func() time.Duration {
			return timed(func() {
				for i := range nodes {
					mustProbe(node.Marshal(&nodes[i], out))
				}
			})
		})},
	}
}

// probeNodePatch times the fast mutation tier's in-place MutableView
// patches, on a half-full copy of a real leaf that is rebuilt (outside
// the timed section) whenever a batch of patches is done.
func probeNodePatch(c *runCtx, pages [][]byte) []probe {
	const batch = 40
	var half node.Node
	mustProbe(node.Unmarshal(pages[0], &half))
	half.Entries = half.Entries[:len(half.Entries)/2]
	tmpl := make([]byte, storage.DefaultPageSize)
	mustProbe(node.Marshal(&half, tmpl))
	work := make([]byte, storage.DefaultPageSize)
	fresh := geom.R2(0.1, 0.1, 0.2, 0.2)
	patch := func(apply func(m *node.MutableView, i int) error) func() time.Duration {
		return func() time.Duration {
			copy(work, tmpl)
			m, err := node.MakeMutableView(work)
			mustProbe(err)
			return timed(func() {
				for i := 0; i < batch; i++ {
					mustProbe(apply(&m, i))
				}
			})
		}
	}
	return []probe{
		{"node.mutable_append_ns", c.best(batch, patch(func(m *node.MutableView, i int) error {
			return m.AppendEntry(fresh, uint64(i))
		}))},
		{"node.mutable_remove_ns", c.best(batch, patch(func(m *node.MutableView, i int) error {
			return m.RemoveEntry(0)
		}))},
		{"node.mutable_setrect_ns", c.best(batch, patch(func(m *node.MutableView, i int) error {
			return m.SetEntryRect(i%m.Count(), fresh)
		}))},
	}
}

// memPagerOf loads pages into a fresh in-memory pager (ids 0..n-1).
func memPagerOf(pages [][]byte) *storage.MemPager {
	mp := storage.NewMemPager(storage.DefaultPageSize)
	for _, p := range pages {
		id, err := mp.Alloc()
		mustProbe(err)
		mustProbe(mp.WritePage(id, p))
	}
	return mp
}

// fetchCycle returns a probe body that fetches and releases pages 0..n-1
// of m once.
func fetchCycle(m buffer.Manager, n int) func() time.Duration {
	return func() time.Duration {
		return timed(func() {
			for id := 0; id < n; id++ {
				f, err := m.Fetch(storage.PageID(id))
				mustProbe(err)
				m.Release(f)
			}
		})
	}
}

// probeBuffer times the buffer pool alone, over an in-memory pager: the
// hit path, the miss path (eviction and frame reuse, with the pager's own
// copy subtracted) and the write pin.
func probeBuffer(c *runCtx, pages [][]byte) []probe {
	n := len(pages)
	mp := memPagerOf(pages)

	hitPool := buffer.NewPool(mp, 2*n)
	fetchCycle(hitPool, n)() // load every page
	hit := c.best(n, fetchCycle(hitPool, n))

	// A cyclic scan over more pages than the pool holds misses every time
	// under LRU.
	missPool := buffer.NewPool(mp, n/4)
	miss := c.best(n, fetchCycle(missPool, n))
	buf := make([]byte, storage.DefaultPageSize)
	pagerRead := c.best(n, func() time.Duration {
		return timed(func() {
			for id := 0; id < n; id++ {
				mustProbe(mp.ReadPage(storage.PageID(id), buf))
			}
		})
	})

	writepin := c.best(n, func() time.Duration {
		return timed(func() {
			for id := 0; id < n; id++ {
				f, err := hitPool.FetchMut(storage.PageID(id))
				mustProbe(err)
				mustProbe(hitPool.ReleaseMut(f))
			}
		})
	})

	return []probe{
		{"buffer.fetch_hit_ns", hit},
		{"buffer.fetch_miss_ns", miss - pagerRead},
		{"buffer.writepin_ns", writepin},
	}
}

// probeShardedBuffer times the sharded manager's hit path (4 shards) with
// P goroutines on it: what one of them sees per fetch.
func probeShardedBuffer(c *runCtx, pages [][]byte) []probe {
	n := len(pages)
	sharded, err := buffer.NewSharded(memPagerOf(pages), 2*n, 4)
	mustProbe(err)
	fetchCycle(sharded, n)()
	contended := c.best(n, func() time.Duration {
		return timed(func() {
			var wg sync.WaitGroup
			errs := make([]error, c.p)
			for g := 0; g < c.p; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < n; k++ {
						f, err := sharded.Fetch(storage.PageID((k*7 + g*31) % n))
						if err != nil {
							errs[g] = err
							return
						}
						sharded.Release(f)
					}
				}(g)
			}
			wg.Wait()
			mustProbe(errors.Join(errs...))
		})
	})
	return []probe{{"buffer.sharded_fetch_ns_c", contended}}
}

// orderProbe times one ordering of a fresh copy of entries; the copy is
// made outside the timed section.
func orderProbe(c *runCtx, entries []node.Entry, order func([]node.Entry)) float64 {
	work := make([]node.Entry, len(entries))
	return c.best(len(entries), func() time.Duration {
		copy(work, entries)
		return timed(func() { order(work) })
	})
}

// probePack times the build path's sorters on the workload's own data:
// the three packing orders of the paper (STR, and its baselines HS and
// NX) at one worker, STR again at P workers, the shared psort kernel at
// both, and the external merge sort with a run size that forces spills.
func probePack(c *runCtx, entries []node.Entry) []probe {
	if len(entries) > c.sz.probeEntries {
		entries = entries[:c.sz.probeEntries]
	}
	capacity := node.Capacity(storage.DefaultPageSize, 2)
	order := func(o rtree.Orderer) func([]node.Entry) {
		return func(e []node.Entry) { o.Order(e, capacity, 0) }
	}
	str1 := orderProbe(c, entries, order(pack.STR{Workers: 1}))
	strN := orderProbe(c, entries, order(pack.STR{Workers: c.p}))
	out := []probe{
		{"pack.str_order_ns_per_entry", str1},
		{"pack.hs_order_ns_per_entry", orderProbe(c, entries, order(pack.HS{Workers: 1}))},
		{"pack.nx_order_ns_per_entry", orderProbe(c, entries, order(pack.NX{Workers: 1}))},
		{"psort.bycenter_ns_per_entry_w1", orderProbe(c, entries, func(e []node.Entry) { psort.ByCenter(e, 0, 1) })},
		{"psort.bycenter_ns_per_entry_wn", orderProbe(c, entries, func(e []node.Entry) { psort.ByCenter(e, 0, c.p) })},
	}
	if strN > 0 {
		out = append(out, probe{"pack.str_order_speedup", str1 / strN})
	}
	sorter, err := extsort.NewSorter(2, max(len(entries)/8, 2), c.tmp)
	mustProbe(err)
	sorter.Workers = c.p
	out = append(out, probe{"extsort.sort_ns_per_entry", c.best(len(entries), func() time.Duration {
		return timed(func() {
			i := 0
			mustProbe(sorter.Sort(extsort.ByCenter(0),
				func() (node.Entry, bool) {
					if i == len(entries) {
						return node.Entry{}, false
					}
					i++
					return entries[i-1], true
				},
				func(e node.Entry) error {
					probeSink += e.Ref
					return nil
				}))
		})
	})})
	return out
}

// probeWire times the codec on messages the serve tape produces: one
// request of each kind and the responses a shard gave to them. The
// per-item figures divide by the items the responses carry.
func probeWire(c *runCtx, reqs []*wire.Request, resps []*wire.Response) []probe {
	items := 0
	for _, r := range resps {
		items += len(r.Items) + len(r.Neighbors)
		for _, b := range r.Batch {
			items += len(b)
		}
	}
	items = max(items, 1)
	reqBytes := make([][]byte, len(reqs))
	respBytes := make([][]byte, len(resps))
	var err error
	for i := range reqs {
		reqBytes[i], err = wire.AppendRequest(nil, reqs[i])
		mustProbe(err)
		respBytes[i], err = wire.AppendResponse(nil, resps[i])
		mustProbe(err)
	}
	var scratch []byte
	roundTrip := func() {
		for i := range reqs {
			var err error
			scratch, err = wire.AppendRequest(scratch[:0], reqs[i])
			mustProbe(err)
			_, err = wire.ParseRequest(reqBytes[i])
			mustProbe(err)
			scratch, err = wire.AppendResponse(scratch[:0], resps[i])
			mustProbe(err)
			_, err = wire.ParseResponse(respBytes[i])
			mustProbe(err)
		}
	}
	roundTrip()
	before := readMem()
	const rounds = 50
	for k := 0; k < rounds; k++ {
		roundTrip()
	}
	allocs := float64(readMem().since(before).mallocs) / float64(rounds*len(reqs))
	return []probe{
		{"wire.append_request_ns", c.best(len(reqs), func() time.Duration {
			return timed(func() {
				for _, r := range reqs {
					scratch, _ = wire.AppendRequest(scratch[:0], r)
				}
			})
		})},
		{"wire.parse_request_ns", c.best(len(reqs), func() time.Duration {
			return timed(func() {
				for _, b := range reqBytes {
					r, _ := wire.ParseRequest(b)
					probeSink += uint64(r.Op)
				}
			})
		})},
		{"wire.append_response_ns_per_item", c.best(items, func() time.Duration {
			return timed(func() {
				for _, r := range resps {
					scratch, _ = wire.AppendResponse(scratch[:0], r)
				}
			})
		})},
		{"wire.parse_response_ns_per_item", c.best(items, func() time.Duration {
			return timed(func() {
				for _, b := range respBytes {
					r, _ := wire.ParseResponse(b)
					probeSink += uint64(r.Op)
				}
			})
		})},
		{"wire.allocs_per_roundtrip", allocs},
	}
}

// probeBatch times the batch executor (SearchBatchCount) on a hot tree at
// one worker and at P.
func probeBatch(c *runCtx, t *strtree.Tree, qs []strtree.Rect) []probe {
	qps := func(workers int) float64 {
		ns := c.best(len(qs), func() time.Duration {
			return timed(func() {
				counts, err := t.SearchBatchCount(qs, workers)
				mustProbe(err)
				probeSink += uint64(len(counts))
			})
		})
		return 1e9 / ns
	}
	w1, wn := qps(1), qps(c.p)
	return []probe{
		{"query.batch_qps_w1", w1},
		{"query.batch_qps_wn", wn},
		{"query.batch_speedup", wn / w1},
	}
}

// probeFacade measures what the public API adds to a call: the same read
// ops through strtree.Tree and through a bare rtree.Tree over the same
// fully buffered file, pass by pass in alternation, keeping each side's
// fastest pass. (Subtracting two whole runs cannot resolve it: the
// difference is tens of nanoseconds in an op of tens of microseconds.)
// Count ops are left out: they return a number, so the facade adds
// nothing to them, and at a millisecond each they would drown the rest.
func probeFacade(c *runCtx, path string, tp *tape) probe {
	var reads []op
	for i := range tp.ops {
		if k := tp.ops[i].kind; k.isRead() && k != opCount && len(reads) < 2000 {
			reads = append(reads, tp.ops[i])
		}
	}
	pub, err := strtree.Open(path, strtree.Options{BufferPages: c.sz.hotPages})
	mustProbe(err)
	defer pub.Close()
	inner, err := openInner(path, c.sz.hotPages, nil)
	mustProbe(err)
	defer inner.close()
	sides := [2]executor{newPublicExec(pub, tp, 1), newInnerExec(inner.tree, nil)}
	var fastest [2]time.Duration
	for l := 0; l <= c.sz.probeLoops; l++ { // pass 0 loads the pages
		for s, ex := range sides {
			d := timed(func() {
				for i := range reads {
					a, err := ex.do(&reads[i])
					mustProbe(err)
					probeSink += a.h
				}
			})
			if l == 1 || (l > 1 && d < fastest[s]) {
				fastest[s] = d
			}
		}
	}
	return probe{"strtree.facade_ns_per_op", float64(fastest[0]-fastest[1]) / float64(len(reads))}
}

// heapWatch samples the live heap and a directory's size while an
// external build runs, returning the peaks.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	dir  string
	// peaks, valid after halt
	heapMiB, dirMiB float64
}

func watchHeap(dir string) *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), dir: dir}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			w.sample()
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *heapWatch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if mib := float64(ms.HeapInuse) / (1 << 20); mib > w.heapMiB {
		w.heapMiB = mib
	}
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return
	}
	var total int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	if mib := float64(total) / (1 << 20); mib > w.dirMiB {
		w.dirMiB = mib
	}
}

// halt stops the sampler and waits for it.
func (w *heapWatch) halt() {
	close(w.stop)
	<-w.done
}
