package rtree

// The runtime structural verifier: Check walks a tree page by page and
// asserts the properties the STR paper's correctness argument rests on,
// failing with a descriptive error at the first violation.
//
// The checks, and where the paper claims them:
//
//   - Balance: every path from the root has the same length, node levels
//     decrease by exactly one per step, and leaves are level 0 (R-trees
//     are "height-balanced", Section 1). Walk enforces it on every step.
//   - Tight MBRs: every internal entry's rectangle is exactly the minimum
//     bounding rectangle of its child node — not merely containing it
//     (Figure 1's structure; a shrunken MBR loses query results, a loose
//     one costs extra disk accesses).
//   - Fill bounds: no node exceeds the capacity n and no non-root node is
//     empty ("Each R-Tree node contains at most n entries", Section 2.1).
//   - Packed fill (optional, CheckConfig.Packed): a bulk-loaded tree fills
//     every node to exactly n entries except the last node of each level
//     — ceil(p/n) nodes per level — which is what gives packing its
//     near-100% space utilization (Section 2.2, "General Algorithm").
//   - Page round-trip: re-filling a page from its own records
//     (node.FillRecords) reproduces the stored page byte for byte — the
//     header, the CRC and a zeroed tail — so what the verifier saw is
//     exactly what is on disk ("one node per page", Section 2.1).
//   - Accounting: no page is referenced twice, no free-list page is live,
//     and the number of data entries found equals the tree's recorded
//     count.

import (
	"bytes"
	"errors"
	"fmt"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// Sentinel errors, one per invariant class; every error Check returns for
// a structural violation wraps exactly one of these and adds page-level
// detail. (A page that fails to decode surfaces node's sentinels instead.)
var (
	// ErrUnbalanced reports a node at the wrong level: unequal root-leaf
	// path lengths or levels not decreasing by one.
	ErrUnbalanced = errors.New("rtree: unbalanced tree")
	// ErrShrunkenMBR reports an internal entry whose rectangle fails to
	// contain its child's MBR: the subtree leaks out of its advertised
	// bounds and queries silently lose results.
	ErrShrunkenMBR = errors.New("rtree: entry MBR does not contain child MBR")
	// ErrLooseMBR reports an internal entry whose rectangle contains but
	// does not equal its child's MBR: correct results, wasted disk reads.
	ErrLooseMBR = errors.New("rtree: entry MBR not tight around child MBR")
	// ErrOverfullNode reports a node holding more than capacity entries.
	ErrOverfullNode = errors.New("rtree: node exceeds capacity")
	// ErrEmptyNode reports an empty non-root node.
	ErrEmptyNode = errors.New("rtree: empty non-root node")
	// ErrPackedFill reports a bulk-loaded level that is not packed to
	// capacity (only the last node of a level may be short).
	ErrPackedFill = errors.New("rtree: packed fill violated")
	// ErrPageRoundTrip reports a page whose re-fill from its own records
	// differs from the stored bytes.
	ErrPageRoundTrip = errors.New("rtree: page round-trip mismatch")
	// ErrPageShared reports a page referenced from two places.
	ErrPageShared = errors.New("rtree: page referenced twice")
	// ErrCount reports a mismatch between data entries found and the
	// tree's recorded count.
	ErrCount = errors.New("rtree: entry count mismatch")
	// ErrDims reports a page whose dimensionality differs from the tree's.
	ErrDims = errors.New("rtree: dimensionality mismatch")
	// ErrFreeListLive reports a free-list page that is still referenced by
	// the live tree — recycling it would hand a live node's page to a new
	// node. Dynamic deletes are the only producer of free pages, so this
	// guards the write path's page accounting.
	ErrFreeListLive = errors.New("rtree: free-list page is referenced by the tree")
)

// CheckConfig selects Check's optional strict check.
type CheckConfig struct {
	// Packed additionally asserts the STR packing fill factor: every node
	// except the last of each level holds exactly capacity entries. True
	// for freshly bulk-loaded trees (any packing algorithm); false for
	// trees mutated by Insert/Delete.
	Packed bool
}

// dimsError is what the tree-dims gate of every page read (viewOf,
// fetchFull) reports for a page that decodes but is not of this tree.
func (t *Tree) dimsError(v node.View) error {
	return fmt.Errorf("%w: page has %d dims, tree has %d (%w)", ErrDims, v.Dims(), t.dims, node.ErrCorrupt)
}

// Check walks the whole tree and returns the first invariant violation,
// or nil. It reads every page through the tree's buffer pool — each one
// fully decoded, never on the strength of a frame's Checked mark — so
// callers measuring I/O should reset pool stats afterwards.
func (t *Tree) Check(cfg CheckConfig) error {
	if t.height == 0 {
		if t.root != storage.NilPage {
			return fmt.Errorf("%w: empty tree with root page %d", ErrBadMeta, t.root)
		}
		if t.count != 0 {
			return fmt.Errorf("%w: empty tree with count %d", ErrCount, t.count)
		}
		return nil
	}
	// parent is what an internal entry promises about the page it
	// references, held until the walk reaches that page.
	type parent struct {
		rect  geom.Rect
		id    storage.PageID
		entry int
	}
	var (
		// live holds every page the walk has reached, plus the meta page;
		// pending every page referenced and not reached yet.
		live    = map[storage.PageID]bool{metaPage: true}
		pending = map[storage.PageID]parent{}
		// nodes and entries per level, indexed by level (0 = leaf).
		nodes   = make([]int, t.height)
		entries = make([]int, t.height)
		mbr     = geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)}
		scratch = make([]byte, t.pool.Pager().PageSize())
		err     error
	)
	visit := func(id storage.PageID, page []byte, v node.View) error {
		if live[id] {
			return fmt.Errorf("%w: page %d", ErrPageShared, id)
		}
		live[id] = true
		if v.Count() > t.capacity {
			return fmt.Errorf("%w: page %d holds %d entries, capacity is %d", ErrOverfullNode, id, v.Count(), t.capacity)
		}
		if v.Count() == 0 && id != t.root {
			return fmt.Errorf("%w: page %d", ErrEmptyNode, id)
		}
		recs := page[node.HeaderSize : node.HeaderSize+v.Count()*node.EntrySize(v.Dims())]
		if ferr := node.FillRecords(scratch, v.Level(), v.Dims(), recs); ferr != nil {
			return fmt.Errorf("%w: page %d: %v", ErrPageRoundTrip, id, ferr)
		}
		if !bytes.Equal(page, scratch) {
			return fmt.Errorf("%w: page %d re-fills differently", ErrPageRoundTrip, id)
		}
		nodes[v.Level()]++
		entries[v.Level()] += v.Count()
		if id != t.root {
			p := pending[id]
			delete(pending, id)
			v.MBRInto(&mbr)
			if !p.rect.Contains(mbr) {
				return fmt.Errorf("%w: page %d entry %d advertises %v, child page %d covers %v",
					ErrShrunkenMBR, p.id, p.entry, p.rect, id, mbr)
			}
			if !p.rect.Equal(mbr) {
				return fmt.Errorf("%w: page %d entry %d advertises %v, child page %d covers %v",
					ErrLooseMBR, p.id, p.entry, p.rect, id, mbr)
			}
		}
		if v.IsLeaf() {
			return nil
		}
		for i := 0; i < v.Count(); i++ {
			child := storage.PageID(v.EntryRef(i))
			if first, dup := pending[child]; dup {
				return fmt.Errorf("%w: page %d (entries %d and %d of page %d)", ErrPageShared, child, first.entry, i, id)
			}
			pending[child] = parent{rect: v.EntryRect(i), id: id, entry: i}
		}
		return nil
	}
	werr := t.walk(func(id storage.PageID, page []byte, v node.View) bool {
		err = visit(id, page, v)
		return err == nil
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	if entries[0] != int(t.count) {
		return fmt.Errorf("%w: found %d data entries, meta records %d", ErrCount, entries[0], t.count)
	}
	// The free list must be disjoint from every live page the walk saw
	// (including the meta page) and hold no duplicates: a violation means
	// newPage will eventually hand a live page to a fresh node.
	freeSeen := make(map[storage.PageID]bool)
	for _, id := range t.free {
		if live[id] {
			return fmt.Errorf("%w: page %d", ErrFreeListLive, id)
		}
		if freeSeen[id] {
			return fmt.Errorf("%w: page %d listed twice in the free list", ErrFreeListLive, id)
		}
		freeSeen[id] = true
	}
	if !cfg.Packed {
		return nil
	}
	// The paper's packing guarantee, level by level: with e entries to
	// place at a level and capacity n, the level uses exactly ceil(e/n)
	// nodes, i.e. every node but the last is full.
	for level := range nodes {
		want := (entries[level] + t.capacity - 1) / t.capacity
		if nodes[level] != want {
			return fmt.Errorf("%w: level %d stores %d entries in %d nodes; packing requires ceil(%d/%d) = %d nodes",
				ErrPackedFill, level, entries[level], nodes[level], entries[level], t.capacity, want)
		}
	}
	return nil
}
