package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// The two CheckConfig values, what the public CheckInvariants and
// CheckPackedInvariants run. strict turns on every check; a healthy
// bulk-loaded tree must pass it.
var (
	plain  = CheckConfig{}
	strict = CheckConfig{Packed: true}
)

// packedTree bulk-loads count random rectangles at capacity 8 so even
// modest counts produce a multi-level tree with corruptible internals.
func packedTree(t *testing.T, count int) *Tree {
	t.Helper()
	pool := buffer.NewPool(storage.NewMemPager(storage.DefaultPageSize), 64)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	entries := make([]node.Entry, count)
	for i := range entries {
		x, y := rng.Float64(), rng.Float64()
		entries[i] = node.Entry{
			Rect: geom.R2(x, y, x+0.01*rng.Float64(), y+0.01*rng.Float64()),
			Ref:  uint64(i),
		}
	}
	if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// pageNode decodes one page straight off the pager, outside the tree.
func pageNode(t *testing.T, tr *Tree, id storage.PageID) node.Node {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, tr.pool.Pager().PageSize())
	if err := tr.pool.Pager().ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	var n node.Node
	if err := node.Unmarshal(buf, &n); err != nil {
		t.Fatal(err)
	}
	return n
}

// nodeMBR is the MBR of a decoded node's entries, grown by
// geom.Rect.UnionInPlace from a clone of the first: the geometry the
// library computes from page records (node.UnionRecords).
func nodeMBR(n node.Node) geom.Rect {
	m := n.Entries[0].Rect.Clone()
	for _, e := range n.Entries[1:] {
		m.UnionInPlace(e.Rect)
	}
	return m
}

// corruptPage decodes page id, hands the node to mutate, and writes the
// re-serialized node back through the pager so the CRC stays valid: the
// corruption is structural, not a storage fault, and must be caught by the
// walk rather than the page decoder.
func corruptPage(t *testing.T, tr *Tree, id storage.PageID, mutate func(n *node.Node)) {
	t.Helper()
	n := pageNode(t, tr, id)
	mutate(&n)
	buf := make([]byte, tr.pool.Pager().PageSize())
	if err := node.Marshal(&n, buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.pool.Pager().WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	// Drop cached frames so the checker rereads the corrupted bytes.
	if err := tr.pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
}

// leftmostLeaf follows first-child references from the root down to a
// leaf page.
func leftmostLeaf(t *testing.T, tr *Tree) storage.PageID {
	t.Helper()
	id := tr.Root()
	for {
		n := pageNode(t, tr, id)
		if n.Level == 0 {
			return id
		}
		id = storage.PageID(n.Entries[0].Ref)
	}
}

// wantCheckError holds both verifier configurations to the same
// sentinel: the plain config fails a corrupt tree with the typed error
// the strict one gives, not an untyped string of its own.
func wantCheckError(t *testing.T, tr *Tree, want error) {
	t.Helper()
	for _, cfg := range []CheckConfig{plain, strict} {
		err := tr.Check(cfg)
		if !errors.Is(err, want) {
			t.Fatalf("Check(%+v): want %v, got: %v", cfg, want, err)
		}
		t.Logf("Check(%+v) rejected with: %v", cfg, err)
	}
}

func TestPackedTreePassesStrictCheck(t *testing.T) {
	for _, count := range []int{0, 1, 7, 8, 9, 64, 65, 1000} {
		tr := packedTree(t, count)
		if err := tr.Check(strict); err != nil {
			t.Errorf("count=%d: healthy packed tree rejected: %v", count, err)
		}
	}
}

func TestDynamicTreePassesCheck(t *testing.T) {
	tr := newTree(t, 8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		x, y := rng.Float64(), rng.Float64()
		if err := tr.Insert(geom.R2(x, y, x+0.01, y+0.01), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Insert-built trees satisfy every universal invariant but not the
	// packed fill factor.
	if err := tr.Check(plain); err != nil {
		t.Errorf("healthy dynamic tree rejected: %v", err)
	}
	if err := tr.Check(strict); !errors.Is(err, ErrPackedFill) {
		t.Errorf("dynamic tree passed the packed fill check: %v", err)
	}
}

func TestDetectsShrunkenMBR(t *testing.T) {
	tr := packedTree(t, 1000)
	// Shrink the first entry of the root: its subtree now leaks outside
	// the advertised rectangle.
	corruptPage(t, tr, tr.Root(), func(n *node.Node) {
		r := &n.Entries[0].Rect
		for d := range r.Max {
			r.Max[d] = r.Min[d] + (r.Max[d]-r.Min[d])/4
		}
	})
	wantCheckError(t, tr, ErrShrunkenMBR)
}

func TestDetectsLooseMBR(t *testing.T) {
	tr := packedTree(t, 1000)
	corruptPage(t, tr, tr.Root(), func(n *node.Node) {
		n.Entries[0].Rect.Max[0] += 1.0
	})
	wantCheckError(t, tr, ErrLooseMBR)
}

func TestDetectsOverfullNode(t *testing.T) {
	tr := packedTree(t, 1000)
	// Duplicate an entry inside a full leaf: the page still fits the copy
	// (capacity 8 is far below the 4 KiB page limit) and the node's MBR is
	// unchanged, so only the fill bound can catch it.
	corruptPage(t, tr, leftmostLeaf(t, tr), func(n *node.Node) {
		n.Entries = append(n.Entries, n.Entries[0])
	})
	wantCheckError(t, tr, ErrOverfullNode)
}

func TestDetectsSkewedHeight(t *testing.T) {
	tr := packedTree(t, 1000)
	// Claim a leaf sits one level higher than it does: one root-leaf path
	// is now shorter than the others.
	corruptPage(t, tr, leftmostLeaf(t, tr), func(n *node.Node) {
		n.Level = 1
	})
	wantCheckError(t, tr, ErrUnbalanced)
}

func TestDetectsCountMismatch(t *testing.T) {
	tr := packedTree(t, 1000)
	// Drop a data entry from a leaf without updating the parent: the leaf
	// MBR may stay valid (interior entry), but the total no longer matches
	// the metadata count. Pick an entry whose rectangle does not touch the
	// leaf's MBR so the tightness check stays satisfied.
	leafID := leftmostLeaf(t, tr)
	leaf := pageNode(t, tr, leafID)
	mbr := nodeMBR(leaf)
	drop := -1
	for i, e := range leaf.Entries {
		inner := true
		for d := 0; d < leaf.Dims; d++ {
			if e.Rect.Min[d] == mbr.Min[d] || e.Rect.Max[d] == mbr.Max[d] {
				inner = false
				break
			}
		}
		if inner {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Skip("no interior entry in the probed leaf")
	}
	corruptPage(t, tr, leafID, func(n *node.Node) {
		n.Entries = append(n.Entries[:drop], n.Entries[drop+1:]...)
	})
	wantCheckError(t, tr, ErrCount)
}

func TestDetectsSharedPage(t *testing.T) {
	t.Run("two entries of one node", func(t *testing.T) {
		tr := packedTree(t, 1000)
		corruptPage(t, tr, tr.Root(), func(n *node.Node) {
			n.Entries[1].Ref = n.Entries[0].Ref
		})
		wantCheckError(t, tr, ErrPageShared)
	})
	t.Run("two parents", func(t *testing.T) {
		tr := packedTree(t, 1000)
		// The root's second child adopts the first child's first child: a
		// page of the right level under two parents.
		root := pageNode(t, tr, tr.Root())
		first := pageNode(t, tr, storage.PageID(root.Entries[0].Ref))
		corruptPage(t, tr, storage.PageID(root.Entries[1].Ref), func(n *node.Node) {
			n.Entries[0].Ref = first.Entries[0].Ref
		})
		wantCheckError(t, tr, ErrPageShared)
	})
}

func TestDetectsLiveFreePage(t *testing.T) {
	tr := packedTree(t, 1000)
	tr.free = append(tr.free, leftmostLeaf(t, tr))
	wantCheckError(t, tr, ErrFreeListLive)
}

func TestDetectsRoundTripMismatch(t *testing.T) {
	tr := packedTree(t, 1000)
	// A stray byte in the zeroed tail of a page: every field decodes the
	// same, the CRC covers only the entries, so nothing but the byte
	// comparison with the page's re-fill from its own records sees it.
	id := leftmostLeaf(t, tr)
	buf := make([]byte, tr.pool.Pager().PageSize())
	if err := tr.pool.Pager().ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] = 0xFF
	if err := tr.pool.Pager().WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	wantCheckError(t, tr, ErrPageRoundTrip)
}

// TestDistinctErrors pins the acceptance criterion that each corruption
// class is rejected with its own sentinel, not a shared generic failure.
func TestDistinctErrors(t *testing.T) {
	sentinels := []error{
		ErrUnbalanced, ErrShrunkenMBR, ErrLooseMBR,
		ErrOverfullNode, ErrEmptyNode, ErrPackedFill,
		ErrPageRoundTrip, ErrPageShared, ErrCount,
		ErrDims, ErrFreeListLive,
	}
	seen := map[string]bool{}
	for _, s := range sentinels {
		if seen[s.Error()] {
			t.Fatalf("duplicate sentinel message %q", s.Error())
		}
		seen[s.Error()] = true
		for _, other := range sentinels {
			if s != other && errors.Is(s, other) {
				t.Fatalf("sentinel %v wraps %v", s, other)
			}
		}
	}
}

// walkers runs every whole-tree reader over tr and returns each one's
// error, by name. On a tree whose pages lie about the structure all of them
// must fail cleanly.
func walkers(tr *Tree) map[string]error {
	errs := map[string]error{}
	errs["Walk"] = tr.Walk(func(storage.PageID, node.View) bool { return true })
	_, errs["NumNodes"] = tr.NumNodes()
	_, errs["Utilization"] = tr.Utilization()
	_, errs["NodesPerLevel"] = tr.NodesPerLevel()
	errs["Check"] = tr.Check(plain)
	return errs
}

// TestWalkRejectsLyingPages crafts pages that pass the CRC but lie about
// where they sit. Before the walker checked levels these panicked
// NodesPerLevel (index out of range) or recursed until the stack died.
func TestWalkRejectsLyingPages(t *testing.T) {
	cases := []struct {
		name  string
		craft func(t *testing.T, tr *Tree)
	}{
		{"leaf claims a level above the root", func(t *testing.T, tr *Tree) {
			corruptPage(t, tr, leftmostLeaf(t, tr), func(n *node.Node) { n.Level = tr.Height() + 3 })
		}},
		{"internal node claims to be a leaf", func(t *testing.T, tr *Tree) {
			root := pageNode(t, tr, tr.Root())
			corruptPage(t, tr, storage.PageID(root.Entries[0].Ref), func(n *node.Node) { n.Level = 0 })
		}},
		{"root references itself", func(t *testing.T, tr *Tree) {
			corruptPage(t, tr, tr.Root(), func(n *node.Node) { n.Entries[0].Ref = uint64(tr.Root()) })
		}},
		{"node references an ancestor", func(t *testing.T, tr *Tree) {
			root := pageNode(t, tr, tr.Root())
			corruptPage(t, tr, storage.PageID(root.Entries[0].Ref), func(n *node.Node) {
				n.Entries[0].Ref = uint64(tr.Root())
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := packedTree(t, 1000)
			if tr.Height() < 3 {
				t.Fatalf("fixture too shallow: height %d", tr.Height())
			}
			c.craft(t, tr)
			for name, err := range walkers(tr) {
				if !errors.Is(err, node.ErrCorrupt) || !errors.Is(err, ErrUnbalanced) {
					t.Errorf("%s: want an error wrapping node.ErrCorrupt and ErrUnbalanced, got: %v", name, err)
				}
			}
		})
	}
}

// visit is one node as a walker showed it.
type visit struct {
	ID      storage.PageID
	Level   int
	Entries []node.Entry
}

// TestWalkMatchesUnmarshal holds the view walker to the recursive
// Unmarshal reference: the same (page, level, count, entry rectangles,
// refs) sequence and the same buffer fetch trace, at k = 2 and k = 3, on a
// packed tree and after a mutation tape.
func TestWalkMatchesUnmarshal(t *testing.T) {
	trees := map[string]*Tree{}
	for _, dims := range []int{2, 3} {
		pool := buffer.NewPool(storage.NewMemPager(512), 16)
		tr, err := Create(pool, Config{Dims: dims})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(dims)))
		entries := make([]node.Entry, 900)
		for i := range entries {
			entries[i] = node.Entry{Rect: randOpRect(rng, dims, false), Ref: uint64(i)}
		}
		if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("packed k=%d", dims)] = tr
		trees[fmt.Sprintf("mutated k=%d", dims)] = runMutateOracle(t, mutOracleConfig{
			seed: 5000 + int64(dims), ops: 1500, dims: dims, pageSize: 256, bufPages: 16,
			pInsert: 0.6, checkEvery: 500,
		})
	}
	for name, tr := range trees {
		t.Run(name, func(t *testing.T) {
			if tr.Height() < 3 {
				t.Fatalf("fixture too shallow: height %d", tr.Height())
			}
			// Cold both times, so hits and misses must line up as well.
			coldTrace := func(fn func()) []string {
				if err := tr.pool.Invalidate(); err != nil {
					t.Fatal(err)
				}
				var seq []string
				tr.pool.SetTracer(func(id storage.PageID, hit bool) { seq = append(seq, fmt.Sprint(id, hit)) })
				fn()
				tr.pool.SetTracer(nil)
				return seq
			}
			var got, want []visit
			gotSeq := coldTrace(func() {
				if err := tr.Walk(func(id storage.PageID, v node.View) bool {
					entries := copyEntries(v)
					got = append(got, visit{id, v.Level(), entries})
					return true
				}); err != nil {
					t.Fatal(err)
				}
			})
			wantSeq := coldTrace(func() {
				if err := tr.WalkUnmarshal(func(id storage.PageID, n *node.Node) bool {
					want = append(want, visit{id, n.Level, n.Entries})
					return true
				}); err != nil {
					t.Fatal(err)
				}
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Walk showed %d nodes, the Unmarshal reference %d (or contents differ)", len(got), len(want))
			}
			if !slices.Equal(gotSeq, wantSeq) {
				t.Fatalf("fetch trace diverged: Walk %v, reference %v", gotSeq, wantSeq)
			}
		})
	}
}
