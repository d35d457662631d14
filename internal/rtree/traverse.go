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
// only during the callback; Clone to retain. The mutation descents
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
	stack []storage.PageID // DFS work list (search, scan)
	pairs []pagePair       // synchronized-traversal work list (join)
	pq    distHeap         // best-first queue (nearest)
	hits  []int32          // one page's intersecting entry indices (search)
	slab  []float64        // banked rectangle coordinates (mins then maxes per entry)
	refs  []uint64         // banked refs parallel to slab
	bankA banked           // join: node from tree a
	bankB banked           // join: node from tree b
	min   geom.Point       // scratch rectangle backing (join MBR filters)
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
// node.View.AppendEntryCoords (dims mins then dims maxes per entry).
func slabRect(slab []float64, i, dims int) geom.Rect {
	off := i * 2 * dims
	return geom.Rect{Min: geom.Point(slab[off : off+dims]), Max: geom.Point(slab[off+dims : off+2*dims])}
}

// searchView is the shared implementation behind Search, Count and their
// context variants: an explicit-stack depth-first traversal that visits
// nodes in exactly the recursive reference order (children of a node are
// expanded leftmost first). A nil ctx skips cancellation checks; a non-nil
// ctx is consulted once per node visit, before the fetch, like searchRec's
// context variant always did. A nil fn makes it a count: the leaf arm
// tallies matches under the pin and banks nothing — no user code runs, so
// there is nothing to release the pin for — and the tally is returned. With
// an fn the returned count is unused.
func (t *Tree) searchView(ctx context.Context, q geom.Rect, fn func(node.Entry) bool) (int, error) {
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
	tr.stack = append(tr.stack[:0], t.root)
	for len(tr.stack) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return matches, err
			}
		}
		top := len(tr.stack) - 1
		id := tr.stack[top]
		tr.stack = tr.stack[:top]
		f, v, err := t.fetchView(id, &tr.n)
		if err != nil {
			return matches, err
		}
		tr.hits = v.AppendIntersecting(tr.hits[:0], q)
		if v.IsLeaf() && fn == nil {
			// Count: no callback will run, so tally under the pin.
			matches += len(tr.hits)
			t.pool.Release(f)
			continue
		}
		if v.IsLeaf() {
			// Bank the matches, release the pin, then emit: callbacks run
			// unpinned, so they may issue queries of their own even on a
			// single-frame buffer pool.
			tr.slab = tr.slab[:0]
			tr.refs = tr.refs[:0]
			for _, i := range tr.hits {
				tr.slab = v.AppendEntryCoords(tr.slab, int(i))
				tr.refs = append(tr.refs, v.EntryRef(int(i)))
			}
			t.pool.Release(f)
			for i, ref := range tr.refs {
				if !fn(node.Entry{Rect: slabRect(tr.slab, i, dims), Ref: ref}) {
					return 0, nil
				}
			}
			continue
		}
		// Internal node: push matching children, then reverse the pushed
		// segment so the leftmost child pops first — the exact recursive
		// preorder, and therefore the exact fetch sequence.
		base := len(tr.stack)
		for _, i := range tr.hits {
			tr.stack = append(tr.stack, storage.PageID(v.EntryRef(int(i))))
		}
		t.pool.Release(f)
		reversePages(tr.stack[base:])
	}
	return matches, nil
}

// reversePages reverses s in place.
func reversePages(s []storage.PageID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// nearestView is the shared implementation behind Nearest and
// NearestContext: best-first search over a pooled typed heap. Leaf entry
// coordinates are banked into the traverser's slab at push time (the heap
// outlives the pin), and the heap replicates container/heap's sift
// algorithm exactly, so pop order — and with it the fetch sequence — is
// identical to the reference implementation's.
func (t *Tree) nearestView(ctx context.Context, p geom.Point, fn func(e node.Entry, dist float64) bool) error {
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
	tr.pq.push(heapItem{dist: 0, ref: uint64(t.root), isNode: true})
	for len(tr.pq) > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		it := tr.pq.pop()
		if !it.isNode {
			off := it.slabOff
			e := node.Entry{
				Rect: geom.Rect{Min: geom.Point(tr.slab[off : off+dims]), Max: geom.Point(tr.slab[off+dims : off+2*dims])},
				Ref:  it.ref,
			}
			if !fn(e, it.dist) {
				return nil
			}
			continue
		}
		f, v, err := t.fetchView(storage.PageID(it.ref), &tr.n)
		if err != nil {
			return err
		}
		if v.IsLeaf() {
			for i := 0; i < v.Count(); i++ {
				d := v.MinDist(p, i)
				off := len(tr.slab)
				tr.slab = v.AppendEntryCoords(tr.slab, i)
				tr.pq.push(heapItem{dist: d, ref: v.EntryRef(i), slabOff: off})
			}
		} else {
			for i := 0; i < v.Count(); i++ {
				tr.pq.push(heapItem{dist: v.MinDist(p, i), ref: v.EntryRef(i), isNode: true})
			}
		}
		t.pool.Release(f)
	}
	return nil
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

// distHeap is a min-heap on (dist, entries-before-nodes). It replicates
// container/heap's sift-up/sift-down exactly — same comparisons, same
// swaps — so for any push sequence its pop order is identical to the
// container/heap implementation it replaced, without the interface boxing
// that allocated on every Push.
type distHeap []heapItem

func (h distHeap) less(i, j int) bool {
	//strlint:ignore floateq exact tie-break: only precisely equal distances defer to the entry-kind rule
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return !h[i].isNode && h[j].isNode
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
	dst.coords = dst.coords[:0]
	dst.refs = dst.refs[:0]
	for i := 0; i < v.Count(); i++ {
		dst.coords = v.AppendEntryCoords(dst.coords, i)
		dst.refs = append(dst.refs, v.EntryRef(i))
	}
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
