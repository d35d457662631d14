package rtree

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// growTree inserts seeded random rectangles into a fresh 256-byte-page 2-d
// tree (capacity 6, minFill 2) until it is the wanted height, and returns
// it with the entries it holds.
func growTree(t *testing.T, cfg Config, height int, seed int64) (*Tree, []node.Entry) {
	t.Helper()
	cfg.Dims = 2
	tr, err := Create(buffer.NewPool(storage.NewMemPager(256), 256), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var live []node.Entry
	for _, e := range randRects(2000, seed) {
		if tr.Height() == height {
			return tr, live
		}
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
	}
	t.Fatalf("tree reached only height %d", tr.Height())
	return nil, nil
}

// TestMutateInPlaceZeroAlloc is the write path's allocation gate: an Insert
// into a leaf with room and the Delete that takes the entry out again — the
// descent, the candidate banking of FindLeaf, the MutableView patches, the
// meta write — allocate nothing once the scratch is warm.
func TestMutateInPlaceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, cfg := range []Config{
		{},
		{ForcedReinsert: true},
	} {
		tr, _ := growTree(t, cfg, 3, 11)
		measured := false
		for _, e := range randRects(64, 12) {
			pair := func() {
				if err := tr.Insert(e.Rect, 1<<40); err != nil {
					t.Fatal(err)
				}
				if found, err := tr.Delete(e.Rect, 1<<40); err != nil || !found {
					t.Fatalf("delete of the entry just inserted: found %v, err %v", found, err)
				}
			}
			before := tr.MutateStats()
			pair() // warms the scratch, and shows whether this rectangle stays in place
			after := tr.MutateStats()
			if after.InPlaceInserts == before.InPlaceInserts || after.InPlaceDeletes == before.InPlaceDeletes {
				continue
			}
			if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
				t.Errorf("reinsert=%v: warm in-place Insert+Delete allocated %.1f times per pair, want 0",
					cfg.ForcedReinsert, allocs)
			}
			measured = true
			break
		}
		if !measured {
			t.Fatalf("reinsert=%v: no probe rectangle stayed in place", cfg.ForcedReinsert)
		}
	}
}

// TestMutateSingleDescent bounds the page requests of the two commonest
// structural mutations on a height-3 tree, counted as the buffer's
// LogicalReads (every Fetch and FetchMut, the meta write included). A
// mutation descends once: an implementation that tries an in-place tier,
// gives up and descends again pays a further h requests and exceeds both
// bounds (11 and 16 where these allow 9 and 13).
func TestMutateSingleDescent(t *testing.T) {
	const h = 3
	tr, live := growTree(t, Config{}, h, 21)
	pager := tr.Pool().Pager()
	requests := func(op func()) int {
		before := tr.Pool().Stats().LogicalReads
		op()
		return int(tr.Pool().Stats().LogicalReads - before)
	}

	// An insert that splits one leaf and nothing else: the descent (h), the
	// leaf read out and written back with its new sibling (3), one patch
	// per ancestor (h-1), the meta page (1).
	splitSeen := false
	for _, e := range randRects(500, 22) {
		pages, structural := pager.NumPages(), tr.MutateStats().StructuralInserts
		n := requests(func() {
			if err := tr.Insert(e.Rect, 1<<32|e.Ref); err != nil {
				t.Fatal(err)
			}
		})
		live = append(live, node.Entry{Rect: e.Rect, Ref: 1<<32 | e.Ref})
		if tr.Height() != h {
			break
		}
		if tr.MutateStats().StructuralInserts == structural || pager.NumPages() != pages+1 {
			continue
		}
		splitSeen = true
		if bound := 2*h + 3; n > bound {
			t.Fatalf("leaf-splitting insert made %d page requests, want <= %d", n, bound)
		}
		break
	}
	if !splitSeen {
		t.Fatal("no insert split exactly one leaf")
	}

	// A delete that dissolves one leaf whose single orphan goes back in
	// place: FindLeaf without backtracking (h, ensured by probing that the
	// rectangle meets one root-to-leaf path only), the leaf read out (1),
	// one patch per ancestor (h-1), the orphan's descent and patches (2h),
	// the meta page (1).
	rng := rand.New(rand.NewSource(23))
	dissolveSeen := false
	for len(live) > 0 && tr.Height() == h {
		i := rng.Intn(len(live))
		e := live[i]
		live = append(live[:i], live[i+1:]...)
		onePath := requests(func() {
			if _, err := tr.Count(e.Rect); err != nil {
				t.Fatal(err)
			}
		}) == h
		free, structural := len(tr.FreePages()), tr.MutateStats().StructuralDeletes
		n := requests(func() {
			if found, err := tr.Delete(e.Rect, e.Ref); err != nil || !found {
				t.Fatalf("delete of a live entry: found %v, err %v", found, err)
			}
		})
		if !onePath || tr.Height() != h || tr.MutateStats().StructuralDeletes == structural || len(tr.FreePages()) != free+1 {
			continue
		}
		dissolveSeen = true
		if bound := 4*h + 1; n > bound {
			t.Fatalf("leaf-dissolving delete made %d page requests, want <= %d", n, bound)
		}
	}
	if !dissolveSeen {
		t.Fatal("no delete dissolved exactly one leaf on a single search path")
	}
}

// TestSplitRespectsReadPin: a split rewrites its node under a write pin, as
// every patch does, so an Insert that would split a leaf a reader holds fails
// with buffer.ErrReadPinned before it changes a byte — the leaf, the entry
// count, the page count and the tree's invariants are as they were — and the
// same Insert goes through once the reader lets go. (Under a read pin the
// rewrite would change the bytes under the reader.)
func TestSplitRespectsReadPin(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tr := strPackedTree(t, densitySquares(rng, 3000, 0))
	e := densitySquares(rng, 1, 3000)[0]
	path, err := tr.choosePath(e.Rect, 0)
	if err != nil {
		t.Fatal(err)
	}
	leaf := path[len(path)-1]
	if leaf.count != tr.Capacity() {
		t.Fatalf("packed leaf holds %d of %d entries: the insert would not split", leaf.count, tr.Capacity())
	}
	check := func() {
		t.Helper()
		if err := tr.Check(CheckConfig{RoundTrip: true}); err != nil {
			t.Fatal(err)
		}
	}
	check()
	f, err := tr.Pool().Fetch(leaf.id)
	if err != nil {
		t.Fatal(err)
	}
	before, n, pages := bytes.Clone(f.Data()), tr.Len(), tr.Pool().Pager().NumPages()
	if err := tr.Insert(e.Rect, e.Ref); !errors.Is(err, buffer.ErrReadPinned) {
		t.Fatalf("insert splitting a read-pinned leaf: err %v, want %v", err, buffer.ErrReadPinned)
	}
	if !bytes.Equal(f.Data(), before) {
		t.Fatal("the refused split changed the pinned leaf's bytes")
	}
	if tr.Len() != n || tr.Pool().Pager().NumPages() != pages {
		t.Fatalf("the refused split left %d entries on %d pages, was %d on %d", tr.Len(), tr.Pool().Pager().NumPages(), n, pages)
	}
	check()
	tr.Pool().Release(f)
	structural := tr.MutateStats().StructuralInserts
	if err := tr.Insert(e.Rect, e.Ref); err != nil {
		t.Fatalf("the same insert after the reader released: %v", err)
	}
	if tr.Len() != n+1 || tr.MutateStats().StructuralInserts != structural+1 {
		t.Fatalf("after the insert: %d entries, %+v; want %d and one more structural insert", tr.Len(), tr.MutateStats(), n+1)
	}
	check()
}
