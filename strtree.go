// Package strtree is a paged R-tree library built around the
// Sort-Tile-Recursive (STR) bulk-loading algorithm of Leutenegger,
// Edgington and Lopez ("STR: A Simple and Efficient Algorithm for R-Tree
// Packing", ICDE 1997), together with the two packing algorithms the paper
// compares against (Hilbert Sort and Nearest-X) and Guttman's dynamic
// insertion and deletion.
//
// Trees store one node per fixed-size page, either in memory or in a file,
// behind an LRU buffer pool whose miss counter reproduces the paper's
// "disk accesses" metric. A typical use:
//
//	tree, err := strtree.New(strtree.Options{})
//	...
//	items := []strtree.Item{{Rect: strtree.R2(0, 0, 1, 1), ID: 1}, ...}
//	err = tree.BulkLoad(items, strtree.PackSTR)
//	err = tree.Search(strtree.R2(0.2, 0.2, 0.4, 0.4), func(it strtree.Item) bool {
//		fmt.Println(it.ID)
//		return true // keep going
//	})
package strtree

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/metrics"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/par"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// Rect is an axis-aligned k-dimensional rectangle (see R2, NewRect,
// PointRect for constructors).
type Rect = geom.Rect

// Point is a location in k-dimensional space.
type Point = geom.Point

// Constructors re-exported from the geometry layer.
var (
	// NewRect builds a rectangle from two corners, reordering coordinates.
	NewRect = geom.NewRect
	// PointRect returns the degenerate rectangle holding exactly one point.
	PointRect = geom.PointRect
	// MBR returns the minimum bounding rectangle of a non-empty set.
	MBR = geom.MBR
)

// R2 returns the 2-D rectangle [x0,x1] x [y0,y1].
func R2(x0, y0, x1, y1 float64) Rect { return geom.R2(x0, y0, x1, y1) }

// Pt2 returns a 2-D point.
func Pt2(x, y float64) Point { return geom.Pt2(x, y) }

// Item is one indexed object: its bounding rectangle and an opaque
// identifier the caller uses to locate the actual object. It is the type
// the query server's codec sends, so a result is served without a copy.
type Item = geom.Item

// Packing selects the bulk-loading algorithm.
type Packing int

const (
	// PackSTR is Sort-Tile-Recursive, the paper's algorithm: the best
	// default; the paper finds it strongest on uniform and mildly skewed
	// data and competitive elsewhere.
	PackSTR Packing = iota
	// PackHilbert is the Hilbert-Sort packing of Kamel and Faloutsos.
	PackHilbert
	// PackNearestX is the Nearest-X packing of Roussopoulos and Leifker.
	// It is simple but uncompetitive for region queries; provided for
	// completeness and comparison.
	PackNearestX
	// PackTGS is the Top-down Greedy Split loader of García, López and
	// Leutenegger (CIKM 1998), the follow-up to the STR paper. It often
	// wins on highly skewed point data at some cost on region queries.
	PackTGS
)

// String returns the packing's name as used in the paper.
func (p Packing) String() string {
	switch p {
	case PackSTR:
		return "STR"
	case PackHilbert:
		return "HS"
	case PackNearestX:
		return "NX"
	case PackTGS:
		return "TGS"
	default:
		return fmt.Sprintf("Packing(%d)", int(p))
	}
}

func (p Packing) orderer(workers int) (rtree.Orderer, error) {
	switch p {
	case PackSTR:
		return pack.STR{Workers: workers}, nil
	case PackHilbert:
		return pack.HS{Workers: workers}, nil
	case PackNearestX:
		return pack.NX{Workers: workers}, nil
	case PackTGS:
		return pack.TGS{Workers: workers}, nil
	default:
		return nil, fmt.Errorf("strtree: unknown packing %d", int(p))
	}
}

// Options configures a tree. The zero value gives a 2-dimensional
// in-memory tree with 4 KiB pages, node fan-out filling the page (102
// entries) and a 256-page LRU buffer. A node that overflows under Insert is
// split by the paper's tile cut: its entries sorted by centre and cut in the
// middle, on the axis whose halves have the smaller total margin.
type Options struct {
	// Dims is the dimensionality; 0 means 2.
	Dims int
	// BufferPages is the LRU pool capacity in pages; 0 means 256.
	BufferPages int
	// BufferShards splits the LRU buffer into this power-of-two number of
	// independently locked shards so concurrent queries (SearchBatch,
	// goroutines sharing the tree) stop serializing behind one buffer
	// mutex. 0 means 1:
	// the single deterministic LRU whose miss counts reproduce the paper's
	// tables; more shards change eviction locality, so access counts under
	// memory pressure can differ slightly. BufferPages must be at least
	// BufferShards, and each shard's slice of the buffer must cover the
	// worst-case concurrently pinned pages (one per querying goroutine).
	// A bad value is an error from the constructor, not a panic.
	BufferShards int
	// Capacity caps entries per node (the paper's n); 0 fills the page.
	Capacity int
	// ForcedReinsert enables R*-style forced reinsertion: the first time a
	// node overflows at each level during one Insert, the 30 % of its
	// entries farthest from its centre are inserted again instead of the
	// node splitting. It is stored in the index file. What it buys, on a
	// pure-insert load of 25 000 rectangles over six seeds (EXPERIMENTS.md,
	// "Overflow handling over seeds"): 7 % fewer disk accesses per 1 %
	// region query (7.80 against 8.39, lower on every seed) and 9 % fewer
	// leaves. What it costs: twice the time per insert (11.7 us against
	// 5.3).
	ForcedReinsert bool
	// Workers bounds the goroutines a bulk load may use: the packing
	// algorithms' parallel sorts plus the loader's encoding of the items
	// and its packing of each level into pages, runs of nodes at a time.
	// 0 means GOMAXPROCS; 1 forces a fully sequential build.
	// The packed tree is byte-for-byte identical for every setting — the
	// sort kernel's index tie-break makes the ordering worker-count
	// independent — so this knob trades only wall time, never layout.
	Workers int
}

// resolveWorkers maps the Options.Workers convention (0 = GOMAXPROCS) to
// an explicit goroutine bound.
func resolveWorkers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}

func (o Options) withDefaults() Options {
	if o.Dims == 0 {
		o.Dims = 2
	}
	if o.BufferPages == 0 {
		o.BufferPages = 256
	}
	if o.BufferShards == 0 {
		o.BufferShards = 1
	}
	return o
}

// IOStats are the buffer pool's counters. DiskReads is the paper's
// disk-access metric: page requests the buffer could not serve.
type IOStats struct {
	LogicalReads int64
	DiskReads    int64
	DiskWrites   int64
	Evictions    int64
}

// Metrics are the paper's secondary comparison metric: summed area and
// perimeter of node MBRs, for leaves and for the whole tree.
type Metrics struct {
	LeafArea, LeafPerimeter   float64
	TotalArea, TotalPerimeter float64
	Nodes, LeafNodes          int
}

// Tree is a paged R-tree. Mutations (Insert, Delete, BulkLoad) are safe
// from one goroutine only; for mixed read/write sharing, hold a
// sync.RWMutex around the tree, as internal/server's treeMu does.
// Read-only access is safe from many goroutines at once while no mutation
// runs — Search and friends touch only immutable tree state and the
// buffer, whose pin protocol keeps every fetched page stable until
// released. For parallel read throughput set Options.BufferShards and use
// SearchBatch.
type Tree struct {
	inner *rtree.Tree
	pool  *buffer.Pool
	pager storage.Pager
	// extSortStats holds the external sorter's counters from the most
	// recent BulkLoadExternal, for LastExternalSortStats.
	extSortStats pack.SortStats
}

// New creates an empty in-memory tree.
func New(opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	return create(storage.NewMemPager(storage.DefaultPageSize), opts)
}

// Create creates an empty tree stored in a new file at path (truncating
// any existing file).
func Create(path string, opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	pg, err := storage.CreateFilePager(path, storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	t, err := create(pg, opts)
	if err != nil {
		return nil, errors.Join(err, pg.Close())
	}
	return t, nil
}

func create(pg storage.Pager, opts Options) (*Tree, error) {
	pool, err := buffer.NewSharded(pg, opts.BufferPages, opts.BufferShards)
	if err != nil {
		return nil, err
	}
	inner, err := rtree.Create(pool, rtree.Config{
		Dims:           opts.Dims,
		Capacity:       opts.Capacity,
		ForcedReinsert: opts.ForcedReinsert,
		Workers:        resolveWorkers(opts.Workers),
	})
	if err != nil {
		return nil, err
	}
	return &Tree{inner: inner, pool: pool, pager: pg}, nil
}

// Open opens a tree previously written with Create. Only BufferPages,
// BufferShards and Workers from opts are used; structural parameters come
// from the file.
func Open(path string, opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	pg, err := storage.OpenFilePager(path, storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewSharded(pg, opts.BufferPages, opts.BufferShards)
	if err != nil {
		return nil, errors.Join(err, pg.Close())
	}
	inner, err := rtree.Open(pool)
	if err != nil {
		return nil, errors.Join(err, pg.Close())
	}
	inner.SetWorkers(resolveWorkers(opts.Workers))
	return &Tree{inner: inner, pool: pool, pager: pg}, nil
}

// BulkLoad builds the tree bottom-up from items using the chosen packing
// algorithm. The tree must be empty; packed nodes are filled to capacity,
// giving near-100% space utilization. This is the paper's preprocessing
// path and produces far better trees than repeated Insert.
func (t *Tree) BulkLoad(items []Item, p Packing) error {
	o, err := p.orderer(t.inner.Workers())
	if err != nil {
		return err
	}
	return t.inner.BulkLoadFunc(len(items), func(i int) (Rect, uint64) { return items[i].Rect, items[i].ID }, o)
}

// Insert adds one item dynamically (Guttman's algorithm).
func (t *Tree) Insert(r Rect, id uint64) error {
	return t.inner.Insert(r, id)
}

// Delete removes the item with exactly this rectangle and id, reporting
// whether it was found.
func (t *Tree) Delete(r Rect, id uint64) (bool, error) {
	return t.inner.Delete(r, id)
}

// Search streams every item whose rectangle intersects q. Returning false
// from fn stops early.
func (t *Tree) Search(q Rect, fn func(Item) bool) error {
	return t.inner.Search(q, func(e node.Entry) bool {
		return fn(Item{Rect: e.Rect, ID: e.Ref})
	})
}

// SearchPoint streams every item whose rectangle contains p.
func (t *Tree) SearchPoint(p Point, fn func(Item) bool) error {
	return t.Search(Rect{Min: p, Max: p}, fn) // aliases p: see rtree.SearchPoint
}

// SearchBatch executes qs concurrently across a pool of workers sharing
// this tree's buffer and returns each query's matches in input order.
// workers < 1 means GOMAXPROCS; workers == 1 runs sequentially with the
// deterministic buffer accounting of a plain Search loop. The batch is
// safe while no goroutine mutates the tree; for parallel speed-up open
// the tree with Options.BufferShards > 1, otherwise workers serialize on
// the single buffer mutex. The first page-read error aborts the batch and
// is returned wrapped with the failing query's index. The items own their
// memory, each corner with cap == len. Merged access statistics accumulate
// in Stats, aggregated across all workers and buffer shards.
func (t *Tree) SearchBatch(qs []Rect, workers int) ([][]Item, error) {
	return t.searchBatch(nil, qs, workers) // nil: no cancellation checks, as in Search
}

// searchBatch is SearchBatch and SearchBatchContext: par.Each over the
// queries, each answered by the collecting read (rtree's Collect), whose
// items own their memory. A query with no matches keeps a nil slice. One
// worker runs the batch in order on the caller. The first error stops the
// batch and is returned as "query %d: …"; errors.Is and As reach the cause.
func (t *Tree) searchBatch(ctx context.Context, qs []Rect, workers int) ([][]Item, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([][]Item, len(qs))
	err := par.Each(len(qs), workers, func(_, i int) (err error) {
		if out[i], err = t.inner.Collect(ctx, qs[i]); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SearchBatchCount is SearchBatch without materializing matches: it
// returns each query's intersection count in input order, the shape the
// paper's access-count experiments use. Workers and errors are as in
// SearchBatch.
func (t *Tree) SearchBatchCount(qs []Rect, workers int) ([]int, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	counts := make([]int, len(qs))
	err := par.Each(len(qs), workers, func(_, i int) (err error) {
		if counts[i], err = t.inner.Count(qs[i]); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// Count returns the number of items intersecting q.
func (t *Tree) Count(q Rect) (int, error) { return t.inner.Count(q) }

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.inner.Len() }

// Height returns the number of tree levels (0 when empty).
func (t *Tree) Height() int { return t.inner.Height() }

// Dims returns the tree's dimensionality.
func (t *Tree) Dims() int { return t.inner.Dims() }

// Capacity returns the node fan-out.
func (t *Tree) Capacity() int { return t.inner.Capacity() }

// Stats returns the I/O counters since the last ResetStats.
func (t *Tree) Stats() IOStats {
	s := t.pool.Stats()
	return IOStats{
		LogicalReads: s.LogicalReads,
		DiskReads:    s.DiskReads,
		DiskWrites:   s.DiskWrites,
		Evictions:    s.Evictions,
	}
}

// ResetStats zeroes the I/O counters, typically after a build so queries
// are measured alone.
func (t *Tree) ResetStats() { t.pool.ResetStats() }

// ShardIOStats is one buffer shard's counters: the IOStats accumulators
// plus Pinned, a gauge of frames pinned at the moment of the snapshot.
// Persistent imbalance across shards means the page-number hash is
// concentrating hot pages, and a Pinned count near a shard's share of the
// buffer means queries risk stalling on frame eviction.
type ShardIOStats struct {
	IOStats
	Pinned int64
}

// ShardStats returns per-shard buffer counters, one element per shard of
// Options.BufferShards (a single element for the default one-shard
// buffer). The snapshot is taken shard by shard, so
// concurrent queries may move counters between elements mid-read; totals
// remain consistent with Stats to within in-flight fetches.
func (t *Tree) ShardStats() []ShardIOStats {
	per := t.pool.ShardStats()
	out := make([]ShardIOStats, len(per))
	for i, s := range per {
		out[i] = ShardIOStats{
			IOStats: IOStats{
				LogicalReads: s.LogicalReads,
				DiskReads:    s.DiskReads,
				DiskWrites:   s.DiskWrites,
				Evictions:    s.Evictions,
			},
			Pinned: s.Pinned,
		}
	}
	return out
}

// ReadPathStats counts zero-copy read-path activity: queries run,
// pages decoded through lazy views, and traverser-pool misses; see
// Tree.ReadPathStats.
type ReadPathStats = rtree.ReadStats

// ReadPathStats snapshots the zero-copy read path's counters for this
// tree: Queries (view-path traversals started), ViewPages (pages decoded
// in place, one per node visit), CheckedPages (full page validations: a
// page is checksummed and its rectangles checked once per buffer
// residency, so over reads this tracks buffer misses, not visits), and
// TraverserAllocs (traversal-state pool misses — flat under steady load
// once warm; growth means queries are allocating). The serving layer
// exposes these on /metrics.
func (t *Tree) ReadPathStats() ReadPathStats { return t.inner.ReadStats() }

// MutatePathStats counts how dynamic mutations finished. Every Insert
// and Delete runs the same algorithm — one descent, one bottom-up
// fix-up — and InPlaceInserts and InPlaceDeletes count the ops it
// finished by patching the affected pages through mutable views alone,
// while the Structural counters count the ops that also had to rebuild
// a node: a split, a forced reinsertion, an underfull node dissolved,
// the root grown, collapsed or first planted; see Tree.MutatePathStats.
type MutatePathStats = rtree.MutateStats

// MutatePathStats snapshots the write path's counters for this tree:
// how often the cheap in-place case applied under a given workload.
func (t *Tree) MutatePathStats() MutatePathStats { return t.inner.MutateStats() }

// BuildStats is the phase breakdown of a bulk load; see LastBuildStats.
type BuildStats = rtree.BuildStats

// LastBuildStats returns where the most recent BulkLoad or
// BulkLoadExternal on this tree spent its time (zero if none ran): wall
// time inside the packing sort; the time packing each ordered level into
// pages — node MBRs, page images and pager writes, which take no buffer
// frame — summed over the workers, after that level's sort, not beside
// it; and the pages written. QueuePeak is always 0.
func (t *Tree) LastBuildStats() BuildStats { return t.inner.LastBuildStats() }

// ExternalSortStats reports the external sorter's activity during a
// BulkLoadExternal; see LastExternalSortStats.
type ExternalSortStats = pack.SortStats

// LastExternalSortStats returns the external-merge-sort counters from the
// most recent successful BulkLoadExternal on this tree (zero if none
// ran): sorts performed, entries ingested, runs spilled to temp files and
// k-way merges. RunsSpilled == 0 means every phase fit in RunSize.
func (t *Tree) LastExternalSortStats() ExternalSortStats { return t.extSortStats }

// DropCaches writes back dirty pages and empties the buffer pool, so the
// next queries run cold.
func (t *Tree) DropCaches() error { return t.pool.Invalidate() }

// Metrics measures the paper's area/perimeter statistics. It walks the
// whole tree (and therefore perturbs Stats).
func (t *Tree) Metrics() (Metrics, error) {
	m, err := metrics.Measure(t.inner)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		LeafArea: m.LeafArea, LeafPerimeter: m.LeafMargin,
		TotalArea: m.TotalArea, TotalPerimeter: m.TotalMargin,
		Nodes: m.Nodes, LeafNodes: m.LeafNodes,
	}, nil
}

// CheckInvariants runs the full structural verifier over every page of the
// tree: height balance, exact MBR tightness at every internal entry, fill
// bounds, entry-count accounting, and a byte-for-byte page round trip (each
// page re-filled from its own records). It holds for any consistent tree, packed or dynamically
// built, and returns a descriptive error naming the first violated
// invariant and the offending page. The walk reads the whole tree, so it
// perturbs Stats.
func (t *Tree) CheckInvariants() error {
	return t.inner.Check(rtree.CheckConfig{})
}

// CheckPackedInvariants runs CheckInvariants plus the STR packing fill
// factor from the paper's Section 3: every node except the last of each
// level holds exactly Capacity entries, i.e. each level uses the minimum
// ceil(entries/capacity) nodes. It holds for freshly bulk-loaded trees;
// trees later mutated by Insert or Delete keep the universal invariants
// but generally lose this one.
func (t *Tree) CheckPackedInvariants() error {
	return t.inner.Check(rtree.CheckConfig{Packed: true})
}

// Flush writes all buffered dirty pages and metadata through to storage.
func (t *Tree) Flush() error { return t.inner.Flush() }

// Close flushes and releases the underlying storage. The tree is unusable
// afterwards.
func (t *Tree) Close() error {
	flushErr := t.Flush()
	syncErr := t.pager.Sync()
	closeErr := t.pager.Close()
	return errors.Join(flushErr, syncErr, closeErr)
}
