package rtree

// Differential mutation-oracle harness: deterministic seeded random
// insert/delete sequences applied simultaneously to a Tree and to a plain
// slice oracle, with the tree held to the slice's answers — Search, Count,
// Nearest — and to a clean Check after every op. Everything is replayable
// from the printed seed.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// oracleEntry mirrors one data entry in the linear-scan oracle.
type oracleEntry struct {
	rect geom.Rect
	ref  uint64
}

// oracle is the naive reference index: a slice, scanned in full per query.
type oracle struct {
	entries []oracleEntry
}

func (o *oracle) insert(r geom.Rect, ref uint64) {
	o.entries = append(o.entries, oracleEntry{rect: r.Clone(), ref: ref})
}

// delete removes the first entry equal to (r, ref), reporting whether one
// existed — the same "remove one instance" semantics as Tree.Delete.
func (o *oracle) delete(r geom.Rect, ref uint64) bool {
	for i := range o.entries {
		if o.entries[i].ref == ref && o.entries[i].rect.Equal(r) {
			o.entries = append(o.entries[:i], o.entries[i+1:]...)
			return true
		}
	}
	return false
}

// searchRefs returns the sorted refs of all entries intersecting q.
func (o *oracle) searchRefs(q geom.Rect) []uint64 {
	var refs []uint64
	for i := range o.entries {
		if o.entries[i].rect.Intersects(q) {
			refs = append(refs, o.entries[i].ref)
		}
	}
	slices.Sort(refs)
	return refs
}

// nearestDists returns the k smallest entry distances from p, sorted.
func (o *oracle) nearestDists(p geom.Point, k int) []float64 {
	dists := make([]float64, 0, len(o.entries))
	for i := range o.entries {
		dists = append(dists, minDist(p, o.entries[i].rect))
	}
	slices.Sort(dists)
	if len(dists) > k {
		dists = dists[:k]
	}
	return dists
}

// mutOracleConfig parameterizes one harness run.
type mutOracleConfig struct {
	seed     int64
	ops      int
	dims     int
	pageSize int
	bufPages int
	// row is the split= field of String(). Every tape runs the tile cut;
	// the ones first pinned under Guttman's linear and quadratic splits
	// (until PR 24) and under the R* split (until PR 26) keep those names,
	// so a tape's history stays under one subtest id.
	row        string
	reinsert   bool
	dupHeavy   bool    // snap coordinates to a coarse grid: many equal keys
	pInsert    float64 // probability an op is an insert
	queryEvery int     // compare queries every n ops (1 = every op)
	checkEvery int     // verify invariants every n ops and after the last (0 = every op)
	// swing > 0 alternates grow and drain phases: every swing ops the insert
	// probability flips between pInsert and 0.1, so one tape climbs through
	// root splits and falls back through condensation and root collapse,
	// down to the empty tree and its bootstrap, several times.
	swing int
	// wrap, when set, interposes on the tree's buffer manager.
	wrap func(buffer.Manager) buffer.Manager
	// reopen, when set, replaces the tree halfway through the tape: the
	// caller flushes it, does what it will to the file and opens it again.
	reopen func(*Tree) *Tree
}

func (c mutOracleConfig) String() string {
	return fmt.Sprintf("seed=%d ops=%d dims=%d page=%d split=%s reinsert=%v dup=%v",
		c.seed, c.ops, c.dims, c.pageSize, c.row, c.reinsert, c.dupHeavy)
}

// randOpRect draws a rectangle; dup-heavy configs snap to a 5^dims grid of
// unit cells so exact-duplicate keys are common.
func randOpRect(rng *rand.Rand, dims int, dupHeavy bool) geom.Rect {
	r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	for d := 0; d < dims; d++ {
		if dupHeavy {
			cell := float64(rng.Intn(5))
			r.Min[d], r.Max[d] = cell, cell+1
		} else {
			lo := rng.Float64() * 100
			r.Min[d], r.Max[d] = lo, lo+rng.Float64()*10
		}
	}
	return r
}

// newMutTree builds an empty dynamic tree per the config.
func newMutTree(t testing.TB, c mutOracleConfig) *Tree {
	t.Helper()
	var pool buffer.Manager = buffer.NewPool(storage.NewMemPager(c.pageSize), c.bufPages)
	if c.wrap != nil {
		pool = c.wrap(pool)
	}
	tr, err := Create(pool, Config{
		Dims:           c.dims,
		ForcedReinsert: c.reinsert,
	})
	if err != nil {
		t.Fatalf("%v: create: %v", c, err)
	}
	return tr
}

// runMutateOracle drives the op sequence, checking invariants after every
// op (every checkEvery ops if set) and query equivalence every queryEvery
// ops. It returns the tree for
// caller-side final assertions.
func runMutateOracle(t *testing.T, c mutOracleConfig) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	tr := newMutTree(t, c)
	var o oracle
	nextRef := uint64(1)

	for op := 0; op < c.ops; op++ {
		if c.reopen != nil && op == c.ops/2 {
			tr = c.reopen(tr)
		}
		pInsert := c.pInsert
		if c.swing > 0 && (op/c.swing)%2 == 1 {
			pInsert = 0.1
		}
		switch {
		case len(o.entries) == 0 || rng.Float64() < pInsert:
			var r geom.Rect
			var ref uint64
			switch {
			case len(o.entries) > 0 && rng.Float64() < 0.05:
				// Exact duplicate of a live entry, rect and ref alike.
				e := o.entries[rng.Intn(len(o.entries))]
				r, ref = e.rect.Clone(), e.ref
			default:
				r, ref = randOpRect(rng, c.dims, c.dupHeavy), nextRef
				nextRef++
			}
			if err := tr.Insert(r, ref); err != nil {
				t.Fatalf("%v: op %d: insert: %v", c, op, err)
			}
			o.insert(r, ref)
		case rng.Float64() < 0.1:
			// Delete a key that is not in the index: both sides miss.
			r := randOpRect(rng, c.dims, false)
			found, err := tr.Delete(r, nextRef+1<<40)
			if err != nil {
				t.Fatalf("%v: op %d: absent delete: %v", c, op, err)
			}
			if found {
				t.Fatalf("%v: op %d: delete of absent key reported found", c, op)
			}
		default:
			e := o.entries[rng.Intn(len(o.entries))]
			found, err := tr.Delete(e.rect, e.ref)
			if err != nil {
				t.Fatalf("%v: op %d: delete: %v", c, op, err)
			}
			if !found {
				t.Fatalf("%v: op %d: delete of live entry (ref %d) not found", c, op, e.ref)
			}
			o.delete(e.rect, e.ref)
		}

		if c.checkEvery == 0 || op%c.checkEvery == 0 || op == c.ops-1 {
			if err := tr.Check(CheckConfig{RoundTrip: true}); err != nil {
				t.Fatalf("%v: op %d: invariants violated: %v", c, op, err)
			}
		}
		if tr.Len() != len(o.entries) {
			t.Fatalf("%v: op %d: tree holds %d entries, oracle %d", c, op, tr.Len(), len(o.entries))
		}
		if c.queryEvery > 0 && op%c.queryEvery == 0 {
			compareQueries(t, c, op, rng, tr, &o)
		}
	}
	return tr
}

// compareQueries holds the tree to the oracle's answers for one random
// region query (Search and Count) and one nearest-neighbor probe.
func compareQueries(t *testing.T, c mutOracleConfig, op int, rng *rand.Rand, tr *Tree, o *oracle) {
	t.Helper()
	q := randOpRect(rng, c.dims, false)
	var got []uint64
	if err := tr.Search(q, func(e node.Entry) bool {
		got = append(got, e.Ref)
		return true
	}); err != nil {
		t.Fatalf("%v: op %d: search: %v", c, op, err)
	}
	slices.Sort(got)
	want := o.searchRefs(q)
	if !slices.Equal(got, want) {
		t.Fatalf("%v: op %d: search disagrees with oracle: tree %d refs, oracle %d refs", c, op, len(got), len(want))
	}
	n, err := tr.Count(q)
	if err != nil {
		t.Fatalf("%v: op %d: count: %v", c, op, err)
	}
	if n != len(want) {
		t.Fatalf("%v: op %d: count %d, oracle %d", c, op, n, len(want))
	}

	if len(o.entries) > 0 {
		p := make(geom.Point, c.dims)
		for d := range p {
			p[d] = rng.Float64() * 100
		}
		k := 1 + rng.Intn(4)
		_, dists, err := tr.NearestK(p, k)
		if err != nil {
			t.Fatalf("%v: op %d: nearestk: %v", c, op, err)
		}
		wantD := o.nearestDists(p, k)
		if len(dists) != len(wantD) {
			t.Fatalf("%v: op %d: nearestk returned %d results, oracle %d", c, op, len(dists), len(wantD))
		}
		for i := range dists {
			if dists[i] != wantD[i] { //strlint:ignore floateq both sides compute the identical distance kernel; exact equality is the assertion
				t.Fatalf("%v: op %d: nearest dist[%d] = %v, oracle %v", c, op, i, dists[i], wantD[i])
			}
		}
	}
}

// TestMutateOracle10kOps is the acceptance harness: a 10,000-op seeded
// random insert/delete sequence with invariants checked after every single
// op and full query equivalence against the linear-scan oracle.
func TestMutateOracle10kOps(t *testing.T) {
	tr := runMutateOracle(t, mutOracleConfig{
		seed:       1097, // replay any failure with this seed
		ops:        10000,
		dims:       2,
		pageSize:   256,
		bufPages:   64,
		pInsert:    0.55,
		queryEvery: 1,
	})
	ms := tr.MutateStats()
	if ms.InPlaceInserts == 0 || ms.InPlaceDeletes == 0 {
		t.Fatalf("fast path never ran: %+v", ms)
	}
	if ms.StructuralInserts == 0 || ms.StructuralDeletes == 0 {
		t.Fatalf("structural path never ran (splits/condensation untested): %+v", ms)
	}
}

// clearCounter counts, from outside the pool, the events that clear a
// frame's validation mark on the write path: Create, ReleaseMut, and a
// MarkDirty under a read pin (the bulk loader's fillPage) — seen as a frame that was marked
// at Fetch and is not at Release. A MarkDirty on a frame that was already
// unmarked goes unseen, and needs no counting: it clears nothing, so no
// validation can be owed to it.
type clearCounter struct {
	buffer.Manager
	creates, releaseMuts, markDirties uint64
	marked                            map[*buffer.Frame]bool
}

func (c *clearCounter) Fetch(id storage.PageID) (*buffer.Frame, error) {
	f, err := c.Manager.Fetch(id)
	if err == nil {
		c.marked[f] = f.Checked()
	}
	return f, err
}

func (c *clearCounter) Release(f *buffer.Frame) {
	if c.marked[f] && !f.Checked() {
		c.markDirties++
	}
	delete(c.marked, f)
	c.Manager.Release(f)
}

func (c *clearCounter) Create() (*buffer.Frame, error) {
	c.creates++
	return c.Manager.Create()
}

func (c *clearCounter) ReleaseMut(f *buffer.Frame) error {
	c.releaseMuts++
	return c.Manager.ReleaseMut(f)
}

// TestMutateCheckedPagesBound holds the write path to "one validation per
// changed page": over the oracle tape, under eviction pressure, every full
// validation is owed to a distinct event that put new bytes under a frame —
// a load from the pager, a Create, a MarkDirty, a ReleaseMut — so their sum
// bounds CheckedPages. Before the mark every visit validated, and patchNode
// validated each path page a second time: CheckedPages would have been
// ViewPages plus one per write pin.
func TestMutateCheckedPagesBound(t *testing.T) {
	cc := &clearCounter{marked: map[*buffer.Frame]bool{}}
	tr := runMutateOracle(t, mutOracleConfig{
		seed:       1103,
		ops:        3000,
		dims:       2,
		pageSize:   256,
		bufPages:   24,
		pInsert:    0.6,
		queryEvery: 3,
		checkEvery: 50,
		wrap: func(m buffer.Manager) buffer.Manager {
			cc.Manager = m
			return cc
		},
	})
	st, io := tr.ReadStats(), cc.Stats()
	if io.Evictions == 0 {
		t.Fatal("no eviction pressure: loads never cleared a mark")
	}
	events := uint64(io.DiskReads) + cc.creates + cc.releaseMuts + cc.markDirties
	if st.CheckedPages > events {
		t.Fatalf("CheckedPages %d exceeds the %d events that could have cleared a mark (%d loads, %d creates, %d write pins, %d dirtied)",
			st.CheckedPages, events, io.DiskReads, cc.creates, cc.releaseMuts, cc.markDirties)
	}
	if st.CheckedPages == 0 || st.CheckedPages >= st.ViewPages {
		t.Fatalf("CheckedPages %d of %d visits: the mark saved nothing", st.CheckedPages, st.ViewPages)
	}
	t.Logf("%d visits, %d validated; %d loads, %d creates, %d write pins, %d dirtied",
		st.ViewPages, st.CheckedPages, io.DiskReads, cc.creates, cc.releaseMuts, cc.markDirties)
}

// TestMutateOracleMatrix sweeps page sizes, dimensionalities, split
// algorithms, forced reinsertion, and duplicate-heavy key distributions.
func TestMutateOracleMatrix(t *testing.T) {
	cases := []mutOracleConfig{
		{seed: 2001, ops: 1500, dims: 2, pageSize: 256, row: "linear"},
		{seed: 2002, ops: 1500, dims: 2, pageSize: 512, row: "quadratic", dupHeavy: true},
		{seed: 2003, ops: 1200, dims: 3, pageSize: 512, row: "quadratic"},
		{seed: 2004, ops: 1200, dims: 2, pageSize: 4096, row: "quadratic"},
		{seed: 2005, ops: 1200, dims: 2, pageSize: 256, row: "rstar", reinsert: true},
		{seed: 2006, ops: 1200, dims: 1, pageSize: 256, row: "linear", dupHeavy: true},
	}
	for _, c := range cases {
		c.pInsert = 0.55
		c.bufPages = 64
		c.queryEvery = 5
		t.Run(c.String(), func(t *testing.T) { runMutateOracle(t, c) })
	}
}

// goldenTapes are the seeded op tapes of TestMutateGoldenBytes with the
// FNV-64a digest of the flushed pager (every page, in page order) each one
// must leave behind: they pin every stored byte, the page allocation order
// and the free-list order. Every tape runs the tile cut. The rows named
// linear and quadratic ran Guttman's splits until PR 24 made the tile cut the
// default and were re-pinned then, once, with these mutation counts
// ({in-place, structural} inserts, then deletes); they have not moved since:
//
//	4001 {1441, 213} {1111, 101}    4007 {2026, 172} {1472, 162}
//	3001 {1462, 225} {1091, 103}    4009 {1340, 342} {968, 222}
//	4004 {2016, 165} {1463, 159}    4010 {1705, 452} {1308, 333}
//	4006 {1387, 286} {1121, 86}     4012 {1525, 638} {1190, 461}
//
// The rows named rstar ran the R* split with forced reinsertion until PR 26
// removed that split; they are the tile cut with forced reinsertion now — the
// only pin on what ForcedReinsert stores — re-pinned then, once:
//
//	4003 {1392, 300} {1079, 78}     4008 {1322, 322} {1166, 62}
//	4005 {2922, 82} {887, 1}        4011 {1577, 573} {1340, 342}
//
// 4004 and 4007 gained their swing in the same re-pin: at fan-out 102 and
// 72 a tile-cut node underflows on its twelfth and ninth delete at the
// earliest, and under the steady 0.75 insert share they had none ever did. A digest changes only with
// an intentional change to the on-disk format or to a placement decision;
// regenerate by running the test with -v, which logs each tape's actual
// digest.
var goldenTapes = []struct {
	cfg  mutOracleConfig
	want uint64
}{
	{mutOracleConfig{seed: 4001, ops: 3000, dims: 2, pageSize: 256, row: "linear", pInsert: 0.55}, 0x1431c1a13502d107},
	{mutOracleConfig{seed: 3001, ops: 3000, dims: 2, pageSize: 256, row: "quadratic", pInsert: 0.55}, 0xb25fe0dd06cac6ed},
	{mutOracleConfig{seed: 4003, ops: 3000, dims: 2, pageSize: 256, row: "rstar", reinsert: true, pInsert: 0.55}, 0x28f7e97938c85cd9},
	{mutOracleConfig{seed: 4004, ops: 4000, dims: 2, pageSize: 4096, row: "quadratic", pInsert: 0.75, swing: 1500}, 0x0fa083511c9ef58d},
	{mutOracleConfig{seed: 4005, ops: 4000, dims: 2, pageSize: 4096, row: "rstar", reinsert: true, pInsert: 0.75}, 0x5d37f7ffd84ca8ba},
	{mutOracleConfig{seed: 4006, ops: 3000, dims: 3, pageSize: 256, row: "linear", pInsert: 0.55}, 0x700cb5d3bcc1b0a7},
	{mutOracleConfig{seed: 4007, ops: 4000, dims: 3, pageSize: 4096, row: "quadratic", pInsert: 0.75, swing: 1500}, 0x4eef8a2fb219cb63},
	{mutOracleConfig{seed: 4008, ops: 3000, dims: 3, pageSize: 256, row: "rstar", reinsert: true, pInsert: 0.55}, 0xb583fda1aaad5756},
	{mutOracleConfig{seed: 4009, ops: 3000, dims: 2, pageSize: 256, row: "quadratic", dupHeavy: true, pInsert: 0.55}, 0x0f1d5392cafbcdb1},
	{mutOracleConfig{seed: 4010, ops: 4000, dims: 2, pageSize: 256, row: "quadratic", pInsert: 0.8, swing: 800}, 0xc181d9f7865091cc},
	{mutOracleConfig{seed: 4011, ops: 4000, dims: 2, pageSize: 256, row: "rstar", reinsert: true, pInsert: 0.8, swing: 800}, 0x216797b6f74a1379},
	{mutOracleConfig{seed: 4012, ops: 4000, dims: 3, pageSize: 256, row: "linear", pInsert: 0.8, swing: 800}, 0x28adc9607dd22f10},
}

// pagerDigest flushes the tree and returns the FNV-64a of every pager page
// in page order (meta page, live nodes and freed pages alike).
func pagerDigest(t *testing.T, tr *Tree) uint64 {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	pager := tr.Pool().Pager()
	h := fnv.New64a()
	page := make([]byte, pager.PageSize())
	for id := 0; id < pager.NumPages(); id++ {
		if err := pager.ReadPage(storage.PageID(id), page); err != nil {
			t.Fatal(err)
		}
		h.Write(page)
	}
	return h.Sum64()
}

// TestMutateGoldenBytes replays each golden tape and requires the flushed
// pager to hash to the recorded digest: the mutation path may change how it
// reaches a tree, never the bytes it stores. Invariants are sampled, not
// checked per op — that is the oracle matrix's job, and the verifier's
// full walk per op would dominate these longer tapes.
func TestMutateGoldenBytes(t *testing.T) {
	for _, g := range goldenTapes {
		c := g.cfg
		c.bufPages, c.checkEvery = 64, 64
		t.Run(c.String(), func(t *testing.T) {
			tr := runMutateOracle(t, c)
			ms := tr.MutateStats()
			if ms.InPlaceInserts == 0 || ms.StructuralInserts == 0 || ms.InPlaceDeletes == 0 || ms.StructuralDeletes == 0 {
				t.Fatalf("tape left a kind of mutation unexercised: %+v", ms)
			}
			got := pagerDigest(t, tr)
			t.Logf("digest %#016x, height %d, %d entries, %d pages, %d free, %+v",
				got, tr.Height(), tr.Len(), tr.Pool().Pager().NumPages(), len(tr.FreePages()), ms)
			if got != g.want {
				t.Errorf("pager digest %#016x, want %#016x", got, g.want)
			}
		})
	}
}
