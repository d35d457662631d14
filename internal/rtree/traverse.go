// Zero-copy read path. Query traversals here iterate node.View over
// buffer-pinned page bytes with explicit reusable stacks instead of
// recursing with a freshly unmarshaled node.Node per frame, so a
// steady-state Search or Count performs zero heap allocations: all
// traversal state — the DFS stack, the best-first heap, the coordinate
// slabs results are banked into — lives in a pooled traverser that is
// reused across queries.
//
// Pin discipline: at most one frame is pinned at a time, and no user
// callback runs while a pin is held (leaf matches are banked into the
// traverser's slab, the pin is released, then the callback sees rectangles
// sliced out of the slab; a Count runs no callback and tallies under the
// pin). That keeps reentrant queries from callbacks
// working on a single-frame buffer pool and keeps the fetch sequence — and
// therefore the paper's disk-access counts and LRU behavior — identical to
// the recursive, materializing reference implementation the tests keep
// (SearchUnmarshal in search_ref_test.go), which the differential tests pin.
//
// Emitted node.Entry rectangles alias the traverser's slab and are valid
// only during the callback; Clone to retain.
//
// What a visit reads. The pages a query fetches, and their order, are the
// paper's procedure and the tests' references; how many words of a fetched
// page it looks at is this file's business, and two rules keep that to what
// the answer needs. A test whose outcome the parent already decided is not
// made: a subtree whose parent rectangle lies inside the window is counted
// by page header and descended without testing (searchView, "covered"), on
// the strength of the one invariant every tree here keeps — a parent's
// rectangle contains its child's. And what will not be returned is not
// copied: a leaf's matches are tested and banked in one pass
// (node.View.AppendMatches), and a NearestK that knows its k banks and
// queues only what can still be among the first k (nearestView). Neither
// rule skips a fetch: every page the reference visits is still pinned,
// validated on first residency, and counted.
//
// The mutation descents
// (mutate.go) read pages through the same fetchView, the one node a mutation
// splits or dissolves included; Walk and Check read through views too
// (walk.go). Nothing in the library decodes a page into a node.Node: that
// type is the write side's staging, for the bulk loader and a split.
//
// Validation: a traversal trusts a byte image only if it passed the full
// node.MakeView since it last changed. viewOf, below, is where that rule
// lives: it validates a page on the first visit of each buffer residency
// and caches the verdict in the frame's Checked mark, which the buffer pool
// clears whenever the bytes can change.
package rtree

import (
	"context"
	"fmt"
	"math"
	"sync"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// ReadStats counts zero-copy read-path activity. All fields are cumulative
// since the Tree was opened; the serving layer samples them at scrape time.
// An operation adds its ViewPages and CheckedPages when it ends, not per
// visit, so a sample taken mid-query does not include that query yet.
type ReadStats struct {
	// Queries is the number of view-path traversals started
	// (Search/Count/Nearest/Scan families, plus one per side of a Join).
	Queries uint64
	// ViewPages is the number of pages decoded through node.View — the
	// unit of decode work, one per node visit of a query and of an Insert
	// or Delete descent.
	ViewPages uint64
	// CheckedPages is the number of full page validations (node.MakeView:
	// payload CRC plus a rectangle check of every entry) those visits ran.
	// A page is validated once per buffer residency, on the first visit
	// after its bytes were loaded or changed, so over a read-only workload
	// this equals the buffer's DiskReads, not its LogicalReads; ViewPages -
	// CheckedPages visits trusted a frame's Checked mark instead.
	CheckedPages uint64
	// TraverserAllocs is the number of traverser pool misses, i.e. heap
	// allocations of traversal state. After warm-up this stays flat:
	// a growing value under steady load means queries are allocating.
	TraverserAllocs uint64
}

// ReadStats returns a snapshot of the zero-copy read-path counters.
func (t *Tree) ReadStats() ReadStats {
	return ReadStats{
		Queries:         t.readQueries.Load(),
		ViewPages:       t.viewPages.Load(),
		CheckedPages:    t.checkedPages.Load(),
		TraverserAllocs: t.travAllocs.Load(),
	}
}

// traverser is the reusable per-query traversal state. A query checks one
// out of travPool, uses it, and returns it; none of its buffers shrink, so
// after a few queries of a given shape no traversal allocates.
type traverser struct {
	stack []pageRef  // DFS work list (search, count, scan)
	pairs []pagePair // synchronized-traversal work list (join)
	pq    distHeap   // best-first queue (nearest)
	kth   kthHeap    // the k smallest entry distances queued (bounded nearest)
	dists []float64  // one page's entry distances (nearest)
	hits  []int32    // one page's intersecting entry indices (search, count)
	slab  []float64  // banked rectangle coordinates (mins then maxes per entry)
	refs  []uint64   // banked refs parallel to slab
	bankA banked     // join: node from tree a
	bankB banked     // join: node from tree b
	min   geom.Point // scratch rectangle backing (join MBR filters)
	max   geom.Point
	n     visitTally // this query's node visits, published by putTraverser
}

// visitTally counts one operation's node visits and full validations off
// the shared cache line; publish adds them to the tree's ReadStats once.
type visitTally struct{ views, checked uint64 }

func (t *Tree) publish(n *visitTally) {
	t.viewPages.Add(n.views)
	if n.checked != 0 { // a warm buffer validates nothing: skip the second shared line
		t.checkedPages.Add(n.checked)
	}
	*n = visitTally{}
}

// pagePair is one node pair of a synchronized join traversal.
type pagePair struct {
	a, b storage.PageID
}

// travPool recycles traversers across queries and goroutines. It has no
// New func on purpose: a Get miss is observable, so TraverserAllocs can
// count exactly how often query state had to be heap-allocated.
var travPool sync.Pool

// getTraverser checks a traverser out of the pool, counting a miss against
// this tree when the pool is empty.
func (t *Tree) getTraverser() *traverser {
	v := travPool.Get()
	if v == nil {
		t.travAllocs.Add(1)
		return &traverser{}
	}
	return v.(*traverser)
}

// putTraverser publishes tr's visit tally and returns it to the pool with
// lengths reset but capacities kept, so the next query reuses the grown
// buffers.
func (t *Tree) putTraverser(tr *traverser) {
	t.publish(&tr.n)
	tr.stack = tr.stack[:0]
	tr.pairs = tr.pairs[:0]
	tr.pq = tr.pq[:0]
	tr.slab = tr.slab[:0]
	tr.refs = tr.refs[:0]
	travPool.Put(tr)
}

// rectScratch returns a reusable rectangle of the given dimensionality
// backed by the traverser's scratch points.
func (tr *traverser) rectScratch(dims int) geom.Rect {
	if cap(tr.min) < dims {
		tr.min = make(geom.Point, dims)
		tr.max = make(geom.Point, dims)
	}
	return geom.Rect{Min: tr.min[:dims], Max: tr.max[:dims]}
}

// fetchView pins page id and returns a view over its validated bytes.
// The caller must Release the frame on every exit path; the view aliases
// the frame's bytes and dies with the pin. Corruption errors are tagged
// with the page; raw fetch errors propagate unwrapped.
func (t *Tree) fetchView(id storage.PageID, n *visitTally) (*buffer.Frame, node.View, error) {
	f, err := t.pool.Fetch(id)
	if err != nil {
		return nil, node.View{}, err
	}
	v, err := t.viewOf(f, n)
	if err != nil {
		t.pool.Release(f)
		return nil, node.View{}, fmt.Errorf("rtree: page %d: %w", id, err)
	}
	n.views++
	return f, v, nil
}

// viewOf builds the view of a node visit over pinned frame f, validating
// the page once per buffer residency rather than once per visit. The rule:
// a traversal trusts a byte image only if it passed the full node.MakeView
// since it last changed. A frame whose Checked mark is set holds such an
// image, so its view is built by the header-only node.MakeTrustedView; any
// other frame goes through MakeView and, on success, gets the mark. The
// buffer pool clears the mark wherever the bytes can change (see
// buffer.Frame), so the first visit after a load or a write always pays the
// full check, and a corrupt image is never marked. This is the only caller
// of MakeTrustedView.
//
// What the mark cannot see is a write to a resident frame outside the pin
// protocol (no MarkDirty, no write pin): the next visit no longer
// re-checksums it. The checkers that exist to distrust memory — Walk and
// Check, through fetchFull — never consult the mark and always validate in
// full.
func (t *Tree) viewOf(f *buffer.Frame, n *visitTally) (node.View, error) {
	checked := f.Checked()
	var v node.View
	var err error
	if checked {
		v, err = node.MakeTrustedView(f.Data())
	} else {
		n.checked++
		v, err = node.MakeView(f.Data())
	}
	if err == nil && v.Dims() != t.dims {
		err = t.dimsError(v)
	}
	if err != nil {
		return node.View{}, err
	}
	if !checked {
		f.SetChecked()
	}
	return v, nil
}

// slabRect slices entry i's rectangle out of a coordinate slab laid out by
// node.View.AppendMatches (dims mins then dims maxes per entry).
func slabRect(slab []float64, i, dims int) geom.Rect {
	off := i * 2 * dims
	return geom.Rect{Min: geom.Point(slab[off : off+dims]), Max: geom.Point(slab[off+dims : off+2*dims])}
}

// everywhere returns the rectangle every rectangle of the given
// dimensionality lies inside and intersects: the window of a Scan, and of a
// join's bankNode, which take a whole page through the window kernels.
func everywhere(dims int) geom.Rect {
	r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	for d := range r.Min {
		r.Min[d], r.Max[d] = math.Inf(-1), math.Inf(1)
	}
	return r
}

// pageRef is one entry of the window traversal's work list: a page to visit
// and whether the parent's rectangle for it lies wholly inside the window.
type pageRef struct {
	id      storage.PageID
	covered bool
}

// searchView is the shared implementation behind Search, Count, their
// context variants and Scan: an explicit-stack depth-first traversal that
// visits nodes in exactly the recursive reference order (a node's children
// are pushed last to first, so the leftmost pops first). A nil ctx skips
// cancellation checks; a non-nil ctx is consulted once per node visit,
// before the fetch, like searchRec's context variant always did. A nil fn
// makes it a count: the leaf arm tallies matches under the pin and banks
// nothing — no user code runs, so there is nothing to release the pin for —
// and the tally is returned. With an fn the returned count is unused.
//
// Covered subtrees. Each work-list entry says whether the rectangle its
// parent holds for it lies inside q (node.View.CoveredBy, asked at the
// parent of the entries that intersect q only; covered says it of the root,
// which has no parent: Scan's whole-tree window). That rectangle contains
// every rectangle stored below it — the invariant Check verifies and every
// write path keeps, loosely after a delete, never the other way — so every
// entry of a covered subtree intersects q and the answer to each test is
// known before it is made: a covered internal node pushes all its children,
// covered, without testing them, and a covered leaf reached by a count adds
// the entry count of the header fetchView just validated and reads no
// entry. The page is still fetched, in the same order, through the same
// fetchView: the paper's metric counts node visits, and a visit saved here
// would be a different tree, not a faster read. A covered leaf that is
// emitted takes the same AppendMatches pass as any other.
func (t *Tree) searchView(ctx context.Context, q geom.Rect, covered bool, fn func(node.Entry) bool) (int, error) {
	if err := t.checkEntry(q); err != nil {
		return 0, err
	}
	if t.height == 0 {
		if ctx != nil {
			return 0, ctx.Err()
		}
		return 0, nil
	}
	t.readQueries.Add(1)
	tr := t.getTraverser()
	defer t.putTraverser(tr)
	dims := t.dims
	matches := 0
	tr.stack = append(tr.stack[:0], pageRef{t.root, covered})
	for len(tr.stack) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return matches, err
			}
		}
		top := tr.stack[len(tr.stack)-1]
		tr.stack = tr.stack[:len(tr.stack)-1]
		f, v, err := t.fetchView(top.id, &tr.n)
		if err != nil {
			return matches, err
		}
		switch {
		case v.IsLeaf() && fn == nil:
			// Count: no callback will run, so tally under the pin.
			if top.covered {
				matches += v.Count()
			} else {
				tr.hits = v.AppendIntersecting(tr.hits[:0], q)
				matches += len(tr.hits)
			}
			t.pool.Release(f)
		case v.IsLeaf():
			// Bank the matches, release the pin, then emit: callbacks run
			// unpinned, so they may issue queries of their own even on a
			// single-frame buffer pool.
			tr.slab, tr.refs = v.AppendMatches(tr.slab[:0], tr.refs[:0], q)
			t.pool.Release(f)
			for i, ref := range tr.refs {
				if !fn(node.Entry{Rect: slabRect(tr.slab, i, dims), Ref: ref}) {
					return 0, nil
				}
			}
		case top.covered:
			for i := v.Count() - 1; i >= 0; i-- {
				tr.stack = append(tr.stack, pageRef{storage.PageID(v.EntryRef(i)), true})
			}
			t.pool.Release(f)
		default:
			tr.hits = v.AppendIntersecting(tr.hits[:0], q)
			for j := len(tr.hits) - 1; j >= 0; j-- {
				i := int(tr.hits[j])
				tr.stack = append(tr.stack, pageRef{storage.PageID(v.EntryRef(i)), v.CoveredBy(q, i)})
			}
			t.pool.Release(f)
		}
	}
	return matches, nil
}

// nearestView is the shared implementation behind Nearest, NearestK and
// their context variants: best-first search over a pooled typed heap. A
// visited page is read once, by node.View.AppendMinDist; a data entry's
// coordinates are banked into the traverser's slab when it is pushed (the
// heap outlives the pin).
//
// k > 0 says the caller stops after k entries (NearestK) and lets the
// traversal prune: it keeps the k-th smallest distance of the data entries
// pushed so far (tr.kth, a k-slot max-heap) and neither banks nor pushes a
// data entry or a child whose distance is strictly greater — k entries at
// least as near are already queued, so it could only be popped after the
// k-th result. Strictly: an entry tied with the k-th distance is kept, and
// because distHeap pops in a total order that does not depend on what else
// is queued, the first k entries emitted — and the pages fetched to find
// them — are exactly those of the unpruned stream, ties included. k <= 0
// (the streaming Nearest, whose caller may stop anywhere) prunes nothing.
func (t *Tree) nearestView(ctx context.Context, p geom.Point, k int, fn func(e node.Entry, dist float64) bool) error {
	if len(p) != t.dims {
		return t.checkEntry(geom.PointRect(p)) // produces the dimension error
	}
	if t.height == 0 {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	t.readQueries.Add(1)
	tr := t.getTraverser()
	defer t.putTraverser(tr)
	dims := t.dims
	tr.pq = tr.pq[:0]
	tr.slab = tr.slab[:0]
	tr.kth = tr.kth[:0]
	bound := math.Inf(1)
	tr.pq.push(heapItem{dist: 0, ref: uint64(t.root), isNode: true})
	for len(tr.pq) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		it := tr.pq.pop()
		if !it.isNode {
			if !fn(node.Entry{Rect: slabRect(tr.slab[it.slabOff:], 0, dims), Ref: it.ref}, it.dist) {
				return nil
			}
			continue
		}
		f, v, err := t.fetchView(storage.PageID(it.ref), &tr.n)
		if err != nil {
			return err
		}
		tr.dists = v.AppendMinDist(tr.dists[:0], p)
		leaf := v.IsLeaf()
		for i, d := range tr.dists {
			if d > bound {
				continue
			}
			if !leaf {
				tr.pq.push(heapItem{dist: d, ref: v.EntryRef(i), isNode: true})
				continue
			}
			off := len(tr.slab)
			tr.slab = v.AppendEntryCoords(tr.slab, i)
			tr.pq.push(heapItem{dist: d, ref: v.EntryRef(i), slabOff: off})
			if k > 0 {
				bound = tr.kth.offer(d, k)
			}
		}
		t.pool.Release(f)
	}
	return nil
}

// kthHeap is a max-heap of the k smallest data-entry distances a bounded
// nearest search has pushed: its root is the distance beyond which nothing
// can be among the first k results.
type kthHeap []float64

// offer records distance d, which is at most the current bound, and returns
// the new one: +Inf until k distances are held, their largest afterwards.
func (h *kthHeap) offer(d float64, k int) float64 {
	q := *h
	if len(q) < k {
		q = append(q, d)
		*h = q
		for j := len(q) - 1; j > 0; {
			i := (j - 1) / 2
			if q[i] >= q[j] {
				break
			}
			q[i], q[j] = q[j], q[i]
			j = i
		}
		if len(q) < k {
			return math.Inf(1)
		}
		return q[0]
	}
	// Full: d <= q[0] replaces the largest and sinks to its place.
	q[0] = d
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(q) {
			break
		}
		if j+1 < len(q) && q[j+1] > q[j] {
			j++
		}
		if q[i] >= q[j] {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return q[0]
}

// heapItem is a prioritized node page or banked data entry. Nodes carry
// their page id in ref; entries carry the data ref in ref and their
// coordinates at slabOff in the traverser's slab.
type heapItem struct {
	dist    float64
	ref     uint64
	slabOff int
	isNode  bool
}

// distHeap is a min-heap of heapItems under a total order: distance, then
// data entries before nodes, then ref, then slabOff (push order, which tells
// apart two entries stored under one ref at one distance; two nodes equal in
// the first three keys are one page). Because the order is total, what pops
// next is a function of what is queued, not of how it was sifted there — so
// a search that declined to queue some far items (nearestView's pruning)
// pops the rest in the order the full search does, and the test oracle
// (refNearest, container/heap under the same keys) agrees with both. The
// sift loops are container/heap's, without its interface boxing, which
// allocated on every Push.
type distHeap []heapItem

func (h distHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	//strlint:ignore floateq exact tie-break: only precisely equal distances defer to the later keys
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.isNode != b.isNode {
		return b.isNode
	}
	if a.ref != b.ref {
		return a.ref < b.ref
	}
	return a.slabOff < b.slabOff
}

func (h *distHeap) push(it heapItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *distHeap) pop() heapItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	q.down(0, n)
	it := q[n]
	*h = q[:n]
	return it
}

func (h distHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h distHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// banked is one node's entries copied out of a pinned view into reusable
// buffers, so a synchronized join can hold both sides of a node pair with
// no pin outstanding — the same one-pin-at-a-time discipline as the
// Unmarshal path, at the same decode cost, without its allocations.
type banked struct {
	level  int
	count  int
	coords []float64
	refs   []uint64
}

// bankNode fetches page id and copies its level, refs, and coordinates
// into dst, releasing the pin before returning.
func (t *Tree) bankNode(id storage.PageID, dst *banked, n *visitTally) error {
	f, v, err := t.fetchView(id, n)
	if err != nil {
		return err
	}
	dst.level = v.Level()
	dst.count = v.Count()
	dst.coords, dst.refs = v.AppendMatches(dst.coords[:0], dst.refs[:0], t.everywhere)
	t.pool.Release(f)
	return nil
}

// rect slices entry i's rectangle out of the bank.
func (b *banked) rect(i, dims int) geom.Rect {
	return slabRect(b.coords, i, dims)
}

// mbrInto computes the bank's minimum bounding rectangle into dst, whose
// Min and Max must have length dims. The bank must be non-empty.
func (b *banked) mbrInto(dst *geom.Rect, dims int) {
	copy(dst.Min, b.coords[:dims])
	copy(dst.Max, b.coords[dims:2*dims])
	for i := 1; i < b.count; i++ {
		off := i * 2 * dims
		for d := 0; d < dims; d++ {
			if lo := b.coords[off+d]; lo < dst.Min[d] {
				dst.Min[d] = lo
			}
			if hi := b.coords[off+dims+d]; hi > dst.Max[d] {
				dst.Max[d] = hi
			}
		}
	}
}
