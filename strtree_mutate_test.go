package strtree

// Differential mutation-oracle harness over the public API: the same
// seeded op sequence is applied to a Tree (via Insert/Delete) and to a
// plain slice oracle, and after every op the tree must pass the full
// structural verifier and answer Search/Count exactly like the linear
// scan. A failing seed is replayed by name — every subtest title carries
// the seed and configuration. This is the public-API half of the harness;
// internal/rtree/mutateoracle_test.go drives the same discipline against
// the engine directly (including byte-identity of the in-place and
// structural write paths).

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mutOracle is the ground truth: a flat slice scanned linearly.
type mutOracle struct {
	items []Item
}

func (o *mutOracle) insert(it Item) { o.items = append(o.items, it) }

// delete removes the first item matching (rect, id) exactly, mirroring
// Tree.Delete's exact-match contract. It reports whether one was found.
func (o *mutOracle) delete(r Rect, id uint64) bool {
	for i, it := range o.items {
		if it.ID == id && it.Rect.Equal(r) {
			o.items = append(o.items[:i], o.items[i+1:]...)
			return true
		}
	}
	return false
}

// searchIDs returns the sorted IDs of items intersecting q.
func (o *mutOracle) searchIDs(q Rect) []uint64 {
	var ids []uint64
	for _, it := range o.items {
		if it.Rect.Intersects(q) {
			ids = append(ids, it.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// mutHarnessConfig is one cell of the public-API matrix.
type mutHarnessConfig struct {
	seed     int64
	ops      int
	dims     int
	pageSize int
	reinsert bool
	// seedItems bulk-loads this many items before mutating (0 starts
	// empty); the packed invariants must hold before the first op.
	seedItems int
	// dupHeavy snaps rectangles to a coarse grid so exact-duplicate keys
	// and ties dominate.
	dupHeavy bool
	// pInsert is the probability an op is an insert.
	pInsert float64
	// queryEvery runs the Search/Count cross-check every this many ops
	// (invariants are verified after every op regardless).
	queryEvery int
}

func (c mutHarnessConfig) name() string {
	return fmt.Sprintf("seed=%d/ops=%d/dims=%d/page=%d/bulk=%d/dup=%t",
		c.seed, c.ops, c.dims, c.pageSize, c.seedItems, c.dupHeavy)
}

// randMutRect draws a rectangle in [0,100)^dims. Duplicate-heavy mode
// snaps corners to a 5-unit grid of unit cells so the same key recurs.
func randMutRect(rng *rand.Rand, dims int, dupHeavy bool) Rect {
	min := make(Point, dims)
	max := make(Point, dims)
	for d := 0; d < dims; d++ {
		if dupHeavy {
			lo := float64(rng.Intn(5)) * 5
			min[d], max[d] = lo, lo+1
		} else {
			lo := rng.Float64() * 100
			min[d], max[d] = lo, lo+rng.Float64()*10
		}
	}
	return Rect{Min: min, Max: max}
}

// runMutHarness drives one configuration to completion.
func runMutHarness(t *testing.T, cfg mutHarnessConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.seed))
	tree, err := New(Options{
		Dims:           cfg.dims,
		PageSize:       cfg.pageSize,
		BufferPages:    64,
		ForcedReinsert: cfg.reinsert,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer tree.Close()

	var o mutOracle
	nextID := uint64(1)
	if cfg.seedItems > 0 {
		items := make([]Item, cfg.seedItems)
		for i := range items {
			items[i] = Item{Rect: randMutRect(rng, cfg.dims, cfg.dupHeavy), ID: nextID}
			nextID++
		}
		if err := tree.BulkLoad(items, PackSTR); err != nil {
			t.Fatalf("BulkLoad: %v", err)
		}
		// Bulk load must hand the write path a tree that satisfies the
		// strict packed-fill invariant before the first mutation.
		if err := tree.CheckPackedInvariants(); err != nil {
			t.Fatalf("pre-mutation CheckPackedInvariants: %v", err)
		}
		o.items = append(o.items, items...)
	}

	for op := 0; op < cfg.ops; op++ {
		switch {
		case len(o.items) == 0 || rng.Float64() < cfg.pInsert:
			it := Item{Rect: randMutRect(rng, cfg.dims, cfg.dupHeavy), ID: nextID}
			nextID++
			if err := tree.Insert(it.Rect, it.ID); err != nil {
				t.Fatalf("op %d: Insert: %v", op, err)
			}
			o.insert(it)
		case rng.Float64() < 0.1:
			// Absent key: both sides must agree nothing was removed.
			r := randMutRect(rng, cfg.dims, cfg.dupHeavy)
			id := nextID + 1<<40
			found, err := tree.Delete(r, id)
			if err != nil {
				t.Fatalf("op %d: absent Delete: %v", op, err)
			}
			if found {
				t.Fatalf("op %d: Delete of absent id %d reported found", op, id)
			}
			if o.delete(r, id) {
				t.Fatalf("op %d: oracle removed an absent key", op)
			}
		default:
			victim := o.items[rng.Intn(len(o.items))]
			found, err := tree.Delete(victim.Rect, victim.ID)
			if err != nil {
				t.Fatalf("op %d: Delete: %v", op, err)
			}
			if !found {
				t.Fatalf("op %d: Delete of live id %d not found", op, victim.ID)
			}
			if !o.delete(victim.Rect, victim.ID) {
				t.Fatalf("op %d: oracle lost id %d", op, victim.ID)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("op %d: CheckInvariants: %v", op, err)
		}
		if tree.Len() != len(o.items) {
			t.Fatalf("op %d: tree Len %d, oracle %d", op, tree.Len(), len(o.items))
		}
		if cfg.queryEvery > 0 && op%cfg.queryEvery == 0 {
			compareMutQueries(t, op, tree, &o, rng, cfg)
		}
	}
	compareMutQueries(t, cfg.ops, tree, &o, rng, cfg)

	ms := tree.MutatePathStats()
	t.Logf("%s: in-place %d+%d, structural %d+%d",
		cfg.name(), ms.InPlaceInserts, ms.InPlaceDeletes, ms.StructuralInserts, ms.StructuralDeletes)
}

// compareMutQueries cross-checks Search and Count against the oracle on
// a handful of random windows.
func compareMutQueries(t *testing.T, op int, tree *Tree, o *mutOracle, rng *rand.Rand, cfg mutHarnessConfig) {
	t.Helper()
	for i := 0; i < 3; i++ {
		q := randMutRect(rng, cfg.dims, false)
		var got []uint64
		if err := tree.Search(q, func(it Item) bool {
			got = append(got, it.ID)
			return true
		}); err != nil {
			t.Fatalf("op %d: Search: %v", op, err)
		}
		slices.Sort(got)
		want := o.searchIDs(q)
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: Search(%v) returned %d IDs, oracle %d", op, q, len(got), len(want))
		}
		n, err := tree.Count(q)
		if err != nil {
			t.Fatalf("op %d: Count: %v", op, err)
		}
		if n != len(want) {
			t.Fatalf("op %d: Count(%v) = %d, oracle %d", op, q, n, len(want))
		}
	}
}

// TestMutateOraclePublicAPI runs the seeded differential harness across
// page sizes, dimensionalities, forced reinsertion, duplicate-heavy keys,
// and both empty and bulk-loaded starting trees.
func TestMutateOraclePublicAPI(t *testing.T) {
	configs := []mutHarnessConfig{
		{seed: 4001, ops: 900, dims: 2, pageSize: 256,
			pInsert: 0.55, queryEvery: 7},
		{seed: 4002, ops: 700, dims: 2, pageSize: 4096,
			seedItems: 1500, pInsert: 0.45, queryEvery: 7},
		{seed: 4003, ops: 700, dims: 3, pageSize: 512,
			pInsert: 0.6, queryEvery: 7},
		{seed: 4004, ops: 700, dims: 2, pageSize: 256,
			reinsert: true, dupHeavy: true, pInsert: 0.5, queryEvery: 7},
		{seed: 4005, ops: 600, dims: 2, pageSize: 1024,
			seedItems: 800, dupHeavy: true, pInsert: 0.35, queryEvery: 7},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name(), func(t *testing.T) {
			t.Parallel()
			runMutHarness(t, cfg)
		})
	}
}

// TestMutateDrainPublicAPI bulk-loads a tree, deletes every item in
// seeded random order (verifying invariants throughout), and checks the
// tree ends empty and can be grown again.
func TestMutateDrainPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(4100))
	tree, err := New(Options{PageSize: 256, BufferPages: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer tree.Close()
	items := randItems(600, 4101)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if err := tree.CheckPackedInvariants(); err != nil {
		t.Fatalf("pre-drain CheckPackedInvariants: %v", err)
	}
	order := rng.Perm(len(items))
	for i, idx := range order {
		it := items[idx]
		found, err := tree.Delete(it.Rect, it.ID)
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !found {
			t.Fatalf("delete %d: id %d not found", i, it.ID)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("delete %d: CheckInvariants: %v", i, err)
		}
	}
	if tree.Len() != 0 || tree.Height() != 0 {
		t.Fatalf("drained tree: Len=%d Height=%d, want 0/0", tree.Len(), tree.Height())
	}
	// The emptied tree must accept fresh inserts.
	for i, it := range items[:50] {
		if err := tree.Insert(it.Rect, it.ID); err != nil {
			t.Fatalf("regrow insert %d: %v", i, err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("regrown tree: %v", err)
	}
	if tree.Len() != 50 {
		t.Fatalf("regrown Len = %d, want 50", tree.Len())
	}
}

// TestMutateStatsSplitPublicAPI pins the MutatePathStats contract: a
// workload that appends into non-full leaves takes the in-place path,
// one that forces splits and condensation takes the structural path, and
// the two sums account for every op.
func TestMutateStatsSplitPublicAPI(t *testing.T) {
	tree, err := New(Options{PageSize: 256, BufferPages: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer tree.Close()
	rng := rand.New(rand.NewSource(4200))
	const n = 400
	for i := 0; i < n; i++ {
		if err := tree.Insert(randMutRect(rng, 2, false), uint64(i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	ms := tree.MutatePathStats()
	if ms.InPlaceInserts+ms.StructuralInserts != n {
		t.Fatalf("insert counters %d+%d do not sum to %d ops",
			ms.InPlaceInserts, ms.StructuralInserts, n)
	}
	if ms.InPlaceInserts == 0 {
		t.Fatal("no insert took the in-place path")
	}
	if ms.StructuralInserts == 0 {
		t.Fatal("no insert split a node; workload too small")
	}
}

// TestMutateReadOnlyViewRejected pins that the write path respects the
// read-only view contract.
func TestMutateReadOnlyViewRejected(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer tree.Close()
	if err := tree.BulkLoad(randItems(100, 4300), PackSTR); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	v, err := tree.View(16)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	defer v.Close()
	if err := v.Insert(R2(0, 0, 1, 1), 999); err != ErrReadOnly {
		t.Fatalf("view Insert error = %v, want ErrReadOnly", err)
	}
	if _, err := v.Delete(R2(0, 0, 1, 1), 999); err != ErrReadOnly {
		t.Fatalf("view Delete error = %v, want ErrReadOnly", err)
	}
}
