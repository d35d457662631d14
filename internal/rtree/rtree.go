// Package rtree implements the paged R-tree the STR paper evaluates: a
// Guttman R-tree whose nodes live one-per-disk-page behind an LRU buffer
// pool, with bottom-up bulk loading (the paper's "General Algorithm",
// Section 2.2), dynamic insertion and deletion (for the paper's
// motivation: comparing packed trees against one-at-a-time loading), and
// point/region intersection queries whose cost is measured in buffer
// misses.
//
// Mutations are not atomic across pages: an Insert or Delete that fails
// midway on an I/O error can leave the tree structurally inconsistent
// until rebuilt from its entries. That matches the paper's scope —
// packing and querying — not crash recovery; a deployment needing
// durability layers a write-ahead log beneath the pager.
package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// Config controls tree creation.
type Config struct {
	// Dims is the dimensionality k of the indexed rectangles.
	Dims int
	// Capacity is the maximum entries per node, the paper's n (100 in all
	// its experiments). Zero means "as many as fit in a page".
	Capacity int
	// ForcedReinsert enables the R*-tree's forced reinsertion: the first
	// time a node overflows at each level during one insertion, the 30%
	// of its entries farthest from the node center are reinserted instead
	// of splitting, which keeps MBRs tighter under dynamic load. Measured
	// over a pure-insert load of 25 000 density-5 squares, six seeds
	// (EXPERIMENTS.md, "Overflow handling over seeds"): 7 % fewer disk
	// accesses per 1 % region query (7.80 against 8.39, lower on every
	// seed) and 9 % fewer leaves, at twice the time per insert.
	ForcedReinsert bool
	// Workers bounds the goroutines bulk loads may use: encoding the
	// entries, and packing each ordered level into pages, runs of nodes at
	// a time (packers add their own sort parallelism on top). It is a
	// runtime knob, not persisted: trees reopened later default to 1.
	// Values < 1 mean 1. The packed tree bytes, and the pager calls that
	// write them, are identical for every setting.
	Workers int
}

// Tree is a paged R-tree. All page access goes through the buffer manager,
// so its DiskReads counter is exactly the paper's number of disk accesses.
// A Tree is not safe for concurrent mutation. Concurrent Search calls on
// one Tree are safe while no mutation runs: the read path touches only
// immutable tree fields, per-query pooled traversal state, and the buffer
// manager, whose pin protocol keeps a fetched page's bytes stable until
// release (queries decode them in place through node.View inside that pin
// scope; Insert and Delete descend the same way and patch pages through
// node.MutableView under exclusive write pins, see mutate.go). Give the
// buffer.Pool more than one shard (buffer.NewSharded) so concurrent readers
// do not serialize behind one buffer mutex, or use independent Trees
// sharing a pager for fully separate buffer accounting.
type Tree struct {
	pool           buffer.Manager
	dims           int
	capacity       int
	minFill        int
	forcedReinsert bool
	workers        int
	buildStats     BuildStats
	everywhere     geom.Rect // the window holding every rectangle (Scan, bankNode); read-only

	root   storage.PageID
	height int // number of levels; 0 = empty, 1 = root is a leaf
	count  uint64
	free   []storage.PageID
	// writeErr is the first page write a bulk load lost (packer.pack);
	// every Flush after it returns it.
	writeErr error

	// reinsert carries forced-reinsertion state for the insertion in
	// flight (single-writer, like all mutations).
	reinsert struct {
		active  bool
		done    map[int]bool // levels that already evicted; made on first use
		pending []orphan
	}

	// mut is the reusable scratch of Insert and Delete (single-writer,
	// like all mutations; see mutate.go): the recorded path, FindLeaf's
	// candidate stack, the MBR carried up the path, a rectangle to decode
	// entries into, and the records an overflow or a new root stages with
	// the sibling entry a split hands the parent.
	mut struct {
		path      []mutStep
		cands     []cand
		hits      []int32 // FindLeaf: one node's intersecting entries
		mbr, rect geom.Rect
		stage     stage
		sib       node.Entry
		n         visitTally // published when Insert or Delete returns
	}
	// mutStats counts in-place vs structural mutations. Atomic so a
	// serving layer can snapshot them while a writer runs; see
	// MutateStats.
	mutStats struct {
		inPlaceInserts    atomic.Uint64
		structuralInserts atomic.Uint64
		inPlaceDeletes    atomic.Uint64
		structuralDeletes atomic.Uint64
	}

	// Zero-copy read-path counters (traverse.go). Atomic because
	// concurrent Search calls are allowed; see ReadStats.
	readQueries  atomic.Uint64
	viewPages    atomic.Uint64
	checkedPages atomic.Uint64
	travAllocs   atomic.Uint64
}

const (
	metaPage    storage.PageID = 0          // a pager holds one tree; its metadata is page 0
	metaMagic   uint32         = 0x4D525453 // "STRM"
	metaVersion byte           = 1
	metaFixed                  = 28 // bytes before the free-page list
)

// Errors returned by tree operations.
var (
	ErrNotEmpty = errors.New("rtree: tree is not empty")
	ErrBadMeta  = errors.New("rtree: bad meta page")
)

// Create initializes a new empty tree on the pool's pager. The pager must
// be empty: the tree claims page 0 (metaPage) for its metadata.
func Create(pool buffer.Manager, cfg Config) (*Tree, error) {
	if pool.Pager().NumPages() != 0 {
		return nil, fmt.Errorf("rtree: pager already holds %d pages", pool.Pager().NumPages())
	}
	pageSize := pool.Pager().PageSize()
	if cfg.Capacity == 0 {
		cfg.Capacity = node.Capacity(pageSize, cfg.Dims)
	}
	// The minimum fill dynamic deletes enforce (Guttman's m <= M/2) is 40 %
	// of the capacity. The meta page stores it, so Open reads it back, and
	// accepts any value checkShape allows.
	minFill := max(cfg.Capacity*2/5, 1)
	if err := checkShape(pageSize, cfg.Dims, cfg.Capacity, minFill); err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	f, err := pool.Create()
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	t := &Tree{
		pool:           pool,
		dims:           cfg.Dims,
		capacity:       cfg.Capacity,
		minFill:        minFill,
		forcedReinsert: cfg.ForcedReinsert,
		workers:        workers,
		everywhere:     everywhere(cfg.Dims),
		root:           storage.NilPage,
	}
	t.encodeMeta(f.Data())
	f.MarkDirty()
	pool.Release(f)
	return t, nil
}

// Open loads the tree Create wrote on the pool's pager.
func Open(pool buffer.Manager) (*Tree, error) {
	if pool.Pager().NumPages() == 0 {
		return nil, fmt.Errorf("%w: no meta page", ErrBadMeta)
	}
	f, err := pool.Fetch(metaPage)
	if err != nil {
		return nil, err
	}
	defer pool.Release(f)
	t := &Tree{pool: pool, workers: 1}
	if err := t.decodeMeta(f.Data()); err != nil {
		return nil, err
	}
	t.everywhere = everywhere(t.dims)
	return t, nil
}

// checkShape is the range check on a tree's dimensionality, node capacity and
// minimum fill. Create applies it to a configuration and decodeMeta to a
// meta page, so Open admits no shape Create would refuse: a file is
// outside input, and a capacity of 0 or beyond what a page holds would
// otherwise surface as a panic in a packer or a half-done Insert.
func checkShape(pageSize, dims, capacity, minFill int) error {
	if dims < 1 || dims > 255 {
		return fmt.Errorf("dims %d out of range [1, 255]", dims)
	}
	pageCap := node.Capacity(pageSize, dims)
	if pageCap < 2 {
		return fmt.Errorf("page size %d too small for %d-d nodes", pageSize, dims)
	}
	if capacity < 2 || capacity > pageCap {
		return fmt.Errorf("capacity %d out of range [2, %d]", capacity, pageCap)
	}
	if minFill < 1 || minFill > capacity/2 {
		return fmt.Errorf("min fill %d out of range [1, %d]", minFill, capacity/2)
	}
	return nil
}

// SetWorkers adjusts the bulk-load goroutine bound (values < 1 mean 1) —
// the runtime counterpart of Config.Workers for reopened trees. It must
// not be called while a bulk load runs.
func (t *Tree) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	t.workers = w
}

// Workers returns the tree's bulk-load goroutine bound.
func (t *Tree) Workers() int { return t.workers }

func (t *Tree) encodeMeta(page []byte) {
	binary.LittleEndian.PutUint32(page[0:], metaMagic)
	page[4] = metaVersion
	page[5] = byte(t.dims)
	binary.LittleEndian.PutUint16(page[6:], uint16(t.capacity))
	binary.LittleEndian.PutUint16(page[8:], uint16(t.minFill))
	binary.LittleEndian.PutUint16(page[10:], uint16(t.height))
	binary.LittleEndian.PutUint32(page[12:], uint32(t.root))
	binary.LittleEndian.PutUint64(page[16:], t.count)
	// Byte 24 named the overflow split until the tile cut became the only
	// one; it is written 0, the tile cut's value, and ignored on read.
	page[24] = 0
	page[25] = 0
	if t.forcedReinsert {
		page[25] |= 1
	}
	// Persist as much of the free list as fits; overflowing ids are leaked,
	// which costs space but never correctness.
	maxFree := (len(page) - metaFixed) / 4
	n := len(t.free)
	if n > maxFree {
		n = maxFree
	}
	binary.LittleEndian.PutUint16(page[26:], uint16(n))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(page[metaFixed+4*i:], uint32(t.free[i]))
	}
}

func (t *Tree) decodeMeta(page []byte) error {
	if len(page) < metaFixed || binary.LittleEndian.Uint32(page[0:]) != metaMagic {
		return ErrBadMeta
	}
	if page[4] != metaVersion {
		return fmt.Errorf("%w: version %d", ErrBadMeta, page[4])
	}
	t.dims = int(page[5])
	t.capacity = int(binary.LittleEndian.Uint16(page[6:]))
	t.minFill = int(binary.LittleEndian.Uint16(page[8:]))
	t.height = int(binary.LittleEndian.Uint16(page[10:]))
	t.root = storage.PageID(binary.LittleEndian.Uint32(page[12:]))
	t.count = binary.LittleEndian.Uint64(page[16:])
	t.forcedReinsert = page[25]&1 != 0
	if err := checkShape(len(page), t.dims, t.capacity, t.minFill); err != nil {
		return fmt.Errorf("%w: %w", ErrBadMeta, err)
	}
	numPages := t.pool.Pager().NumPages()
	if t.height > 0 && int(t.root) >= numPages {
		return fmt.Errorf("%w: root page %d of %d", ErrBadMeta, t.root, numPages)
	}
	nfree := int(binary.LittleEndian.Uint16(page[26:]))
	if metaFixed+4*nfree > len(page) {
		return fmt.Errorf("%w: free list overflows page", ErrBadMeta)
	}
	t.free = make([]storage.PageID, nfree)
	for i := range t.free {
		t.free[i] = storage.PageID(binary.LittleEndian.Uint32(page[metaFixed+4*i:]))
		if int(t.free[i]) >= numPages {
			return fmt.Errorf("%w: free page %d of %d", ErrBadMeta, t.free[i], numPages)
		}
	}
	return nil
}

// writeMeta persists the in-memory metadata to the meta page.
func (t *Tree) writeMeta() error {
	f, err := t.pool.Fetch(metaPage)
	if err != nil {
		return err
	}
	t.encodeMeta(f.Data())
	f.MarkDirty()
	t.pool.Release(f)
	return nil
}

// Dims returns the tree's dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Capacity returns the maximum entries per node (the paper's n).
func (t *Tree) Capacity() int { return t.capacity }

// Height returns the number of levels (0 for an empty tree, 1 when the
// root is a leaf).
func (t *Tree) Height() int { return t.height }

// Len returns the number of data entries in the tree.
func (t *Tree) Len() int { return int(t.count) }

// Root returns the root page id, or storage.NilPage for an empty tree.
func (t *Tree) Root() storage.PageID { return t.root }

// Pool returns the tree's buffer manager, whose Stats carry the
// disk-access counts the experiments report.
func (t *Tree) Pool() buffer.Manager { return t.pool }

// Flush writes all buffered dirty pages and the metadata to the pager. After
// a bulk load lost a page write it fails with that error, every time: the
// file misses pages no frame holds any more.
func (t *Tree) Flush() error {
	if t.writeErr != nil {
		return t.writeErr
	}
	if err := t.writeMeta(); err != nil {
		return err
	}
	return t.pool.FlushAll()
}

// reservePage takes a page id for a new node, recycling freed pages first,
// and does no I/O either way: a fresh id is the pager's bookkeeping, and the
// page is the job of whoever fills it (newPage's frame, or the bulk
// loader's packer).
func (t *Tree) reservePage() (id storage.PageID, fresh bool, err error) {
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		return id, false, nil
	}
	id, err = t.pool.Pager().Alloc()
	return id, true, err
}

// newPage reserves a page for a new node of the dynamic write path, which
// fills it with fillNode: a fresh page enters the pool here.
func (t *Tree) newPage() (storage.PageID, error) {
	id, fresh, err := t.reservePage()
	if err != nil || !fresh {
		return id, err
	}
	f, err := t.pool.Adopt(id)
	if err != nil {
		return storage.NilPage, err
	}
	t.pool.Release(f)
	return id, nil
}

// freePage returns a page to the allocator.
func (t *Tree) freePage(id storage.PageID) {
	t.free = append(t.free, id)
}

// FreePages returns a copy of the free-page list: pages released by
// deletes and splits-gone-wrong, awaiting recycling by newPage. Check
// asserts it is disjoint from the live tree.
func (t *Tree) FreePages() []storage.PageID {
	out := make([]storage.PageID, len(t.free))
	copy(out, t.free)
	return out
}

// checkEntry validates a data entry before insertion.
func (t *Tree) checkEntry(r geom.Rect) error {
	if r.Dim() != t.dims {
		return fmt.Errorf("rtree: rectangle dimension %d, tree dimension %d", r.Dim(), t.dims)
	}
	if !r.Valid() {
		return fmt.Errorf("rtree: invalid rectangle %v", r)
	}
	return nil
}

// Bounds returns the MBR of the whole tree (the root node's MBR) and
// whether the tree is non-empty.
func (t *Tree) Bounds() (geom.Rect, bool, error) {
	if t.height == 0 {
		return geom.Rect{}, false, nil
	}
	var n visitTally
	defer t.publish(&n)
	f, v, err := t.fetchView(t.root, &n)
	if err != nil {
		return geom.Rect{}, false, err
	}
	defer t.pool.Release(f)
	if v.Count() == 0 {
		return geom.Rect{}, false, nil
	}
	mbr := geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)}
	v.MBRInto(&mbr)
	return mbr, true, nil
}

// NumNodes counts the pages occupied by tree nodes (excluding the meta
// page). It walks the tree.
func (t *Tree) NumNodes() (int, error) {
	n := 0
	err := t.Walk(func(storage.PageID, node.View) bool { n++; return true })
	return n, err
}

// Utilization returns the average leaf fill fraction: data entries
// divided by leaf slots. Packed trees sit at ~1.0 (the paper's
// near-100% space utilization); Guttman-loaded trees around 0.65-0.70.
func (t *Tree) Utilization() (float64, error) {
	if t.height == 0 {
		return 0, nil
	}
	leaves := 0
	err := t.Walk(func(_ storage.PageID, v node.View) bool {
		if v.IsLeaf() {
			leaves++
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	return float64(t.count) / float64(leaves*t.capacity), nil
}

// NodesPerLevel returns the node count at each level, root first. The
// paper's Table 1 derives buffer percentages from these totals.
func (t *Tree) NodesPerLevel() ([]int, error) {
	if t.height == 0 {
		return nil, nil
	}
	counts := make([]int, t.height)
	err := t.Walk(func(_ storage.PageID, v node.View) bool {
		counts[t.height-1-v.Level()]++
		return true
	})
	return counts, err
}
