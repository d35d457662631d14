package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/storage"
)

// densitySquares draws n squares of total area 1 in the unit square, the
// ledger's base data and what its tape inserts.
func densitySquares(rng *rand.Rand, n int, firstRef uint64) []node.Entry {
	out := make([]node.Entry, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		side := math.Sqrt(rng.Float64() * 2 / float64(n))
		out[i] = node.Entry{Rect: geom.R2(x, y, math.Min(x+side, 1), math.Min(y+side, 1)), Ref: firstRef + uint64(i)}
	}
	return out
}

// strPackedTree STR-packs entries into full 4 KiB pages behind a 1 024-page pool:
// the tree the ledger's mutate workload starts from.
func strPackedTree(t testing.TB, entries []node.Entry) *Tree {
	t.Helper()
	tr, err := Create(buffer.NewPool(storage.NewMemPager(4096), 1024), Config{Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(slices.Clone(entries), pack.STR{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// overflowingLeaf returns the entry set Insert(e) is about to split — the full
// leaf ChooseLeaf picks, then e — or nil if that leaf has room.
func overflowingLeaf(t *testing.T, tr *Tree, e node.Entry) []node.Entry {
	t.Helper()
	path, err := tr.choosePath(e.Rect, 0)
	if err != nil {
		t.Fatal(err)
	}
	leaf := path[len(path)-1]
	if leaf.count < tr.capacity {
		return nil
	}
	f, v, err := tr.fetchView(leaf.id, &tr.mut.n)
	if err != nil {
		t.Fatal(err)
	}
	entries := copyEntries(v)
	tr.pool.Release(f)
	return append(entries, e)
}

// TestMutateLedgerMixNeverDissolves keeps the finding behind the default split
// executable. The ledger's mutate mix in small — a packed tree of 20 000
// squares, then a shuffled tape of a quarter inserts, a quarter deletes of
// random live entries and half reads (points and windows of side 0.01), held
// to a brute-force model — must
// finish without one structural delete. Under the default this displaced,
// Guttman's linear split, the same tape dissolved 71 nodes, each reinserting
// its 39 survivors from the root: 31 % of the ledger workload's time and the
// whole of its tail (EXPERIMENTS.md, PR 24). The second half shows why on the
// very entry sets this tape overflows: the linear split leaves a half at
// exactly MinFill, one delete from dissolving, on at least four in five of
// them (90.6 % on the ledger's tape); the tile cut's smaller half is 51.
func TestMutateLedgerMixNeverDissolves(t *testing.T) {
	const items, ops = 20000, 8000
	rng := rand.New(rand.NewSource(24))
	live := densitySquares(rng, items, 0)
	tr := strPackedTree(t, live)
	fresh := densitySquares(rng, ops/4, items)

	kinds := make([]byte, ops)
	for i := range kinds {
		kinds[i] = "idrr"[i*4/ops]
	}
	rng.Shuffle(ops, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	var overflows [][]node.Entry
	var hits []uint64
	for op, kind := range kinds {
		switch kind {
		case 'i':
			e := fresh[0]
			fresh = fresh[1:]
			if set := overflowingLeaf(t, tr, e); set != nil {
				overflows = append(overflows, set)
			}
			if err := tr.Insert(e.Rect, e.Ref); err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			live = append(live, e)
		case 'd':
			j := rng.Intn(len(live))
			if found, err := tr.Delete(live[j].Rect, live[j].Ref); err != nil || !found {
				t.Fatalf("op %d: delete of live ref %d: found %v, err %v", op, live[j].Ref, found, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			x, y := rng.Float64(), rng.Float64()
			q := geom.R2(x, y, x, y)
			if op%2 == 0 {
				q = geom.R2(x, y, math.Min(x+0.01, 1), math.Min(y+0.01, 1))
			}
			hits = hits[:0]
			if err := tr.Search(q, func(e node.Entry) bool { hits = append(hits, e.Ref); return true }); err != nil {
				t.Fatalf("op %d: search: %v", op, err)
			}
			if op%16 < 2 { // the model is a linear scan: hold one read in eight to it
				var want []uint64
				for _, e := range live {
					if e.Rect.Intersects(q) {
						want = append(want, e.Ref)
					}
				}
				slices.Sort(hits)
				slices.Sort(want)
				if !slices.Equal(hits, want) {
					t.Fatalf("op %d: search %v returned %d refs, the model %d", op, q, len(hits), len(want))
				}
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("tree holds %d entries, the model %d", tr.Len(), len(live))
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	ms := tr.MutateStats()
	t.Logf("%+v, %d leaf overflows captured", ms, len(overflows))
	if ms.StructuralDeletes != 0 || ms.StructuralInserts == 0 {
		t.Fatalf("the tape must split and must not dissolve: %+v", ms)
	}

	atMinFill := 0
	for _, set := range overflows {
		left, right := splitLinear(set, tr.minFill)
		if min(len(left), len(right)) == tr.minFill {
			atMinFill++
		}
		if left, right = tileCut(set); len(right) != tr.Capacity()/2 || len(left)+len(right) != len(set) {
			t.Fatalf("tile cut %d entries %d/%d", len(set), len(left), len(right))
		}
	}
	t.Logf("linear split: a half at MinFill on %d of %d overflows", atMinFill, len(overflows))
	if len(overflows) < 100 || atMinFill*5 < len(overflows)*4 {
		t.Fatalf("linear split left a half at exactly MinFill on %d of %d overflows, want at least 80 %% of at least 100", atMinFill, len(overflows))
	}
}

// BenchmarkShrink prices the write path's other edge, the one the tile cut
// does not touch: underflow. 70 % of a packed 200 000-entry tree is deleted in
// random order, each delete timed; reported are the mean, the worst op, how
// many deletes dissolved a node (Delete reinserts the survivors from the
// root) and what one of those cost.
func BenchmarkShrink(b *testing.B) {
	const items = 200000
	rng := rand.New(rand.NewSource(24))
	entries := densitySquares(rng, items, 0)
	order := rng.Perm(items)[:items*7/10]
	var total, worst, structuralNs time.Duration
	var structural uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := strPackedTree(b, entries)
		b.StartTimer()
		for _, j := range order {
			before, t0 := tr.mutStats.structuralDeletes.Load(), time.Now()
			if found, err := tr.Delete(entries[j].Rect, entries[j].Ref); err != nil || !found {
				b.Fatalf("delete of ref %d: found %v, err %v", entries[j].Ref, found, err)
			}
			d := time.Since(t0)
			total, worst = total+d, max(worst, d)
			if tr.mutStats.structuralDeletes.Load() != before {
				structural, structuralNs = structural+1, structuralNs+d
			}
		}
	}
	n := float64(b.N * len(order))
	b.ReportMetric(float64(total.Nanoseconds())/n/1e3, "us/delete")
	b.ReportMetric(float64(worst.Nanoseconds())/1e3, "worst-us")
	b.ReportMetric(float64(structural)/float64(b.N), "dissolves")
	b.ReportMetric(float64(structuralNs.Nanoseconds())/float64(max(structural, 1))/1e3, "us/dissolve")
}

// BenchmarkInsertPacked is the ledger's splitting insert in-package: inserts
// of density squares into a freshly STR-packed tree of 100 000 over a
// MemPager behind a 1 024-page pool (strPackedTree), where every leaf is full,
// so the first insert into each leaf splits it. As inserts land in leaves
// already split the share that split drifts down; the tree is rebuilt, with
// the timer stopped, every 1.6 leaf-counts of inserts, which holds it near
// the ledger's half. Reported: ns/insert and splits/insert (structural
// inserts: each split at least one node).
func BenchmarkInsertPacked(b *testing.B) {
	const items = 100000
	rng := rand.New(rand.NewSource(30))
	base := densitySquares(rng, items, 0)
	tr := strPackedTree(b, base)
	perLevel, err := tr.NodesPerLevel()
	if err != nil {
		b.Fatal(err)
	}
	batch := perLevel[len(perLevel)-1] * 8 / 5
	fresh := densitySquares(rng, batch, items)
	var splits uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%batch == 0 {
			b.StopTimer()
			splits += tr.MutateStats().StructuralInserts
			tr = strPackedTree(b, base)
			b.StartTimer()
		}
		e := fresh[i%batch]
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	splits += tr.MutateStats().StructuralInserts
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/insert")
	b.ReportMetric(float64(splits)/float64(b.N), "splits/insert")
}
