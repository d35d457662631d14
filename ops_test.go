package strtree

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"strtree/internal/node"
	"strtree/internal/storage"
)

func TestNearestPublic(t *testing.T) {
	tree, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(800, 21)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	p := Pt2(0.5, 0.5)
	got, dists, err := tree.NearestK(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || len(dists) != 5 {
		t.Fatalf("NearestK returned %d items, %d dists", len(got), len(dists))
	}
	for i := 1; i < 5; i++ {
		if dists[i] < dists[i-1] {
			t.Fatalf("distances unsorted: %v", dists)
		}
	}
	// Streaming form stops on demand.
	n := 0
	if err := tree.Nearest(p, func(Item, float64) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("streaming nearest visited %d", n)
	}
}

func TestJoinPublic(t *testing.T) {
	build := func(seed int64, n int) (*Tree, []Item) {
		tree, err := New(Options{Capacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		items := randItems(n, seed)
		if err := tree.BulkLoad(items, PackSTR); err != nil {
			t.Fatal(err)
		}
		return tree, items
	}
	ta, ia := build(22, 300)
	tb, ib := build(23, 250)
	want := 0
	for _, a := range ia {
		for _, b := range ib {
			if a.Rect.Intersects(b.Rect) {
				want++
			}
		}
	}
	got := 0
	if err := Join(ta, tb, func(a, b Item) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("join pairs = %d, want %d", got, want)
	}
}

func TestJoinWithinPublic(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(R2(0.1, 0.1, 0.2, 0.2), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(R2(0.3, 0.1, 0.4, 0.2), 2); err != nil { // 0.1 away in x
		t.Fatal(err)
	}
	count := func(dist float64) int {
		n := 0
		if err := JoinWithin(a, b, dist, func(Item, Item) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if count(0.05) != 0 {
		t.Fatal("pair 0.1 apart matched at dist 0.05")
	}
	if count(0.15) != 1 {
		t.Fatal("pair 0.1 apart missed at dist 0.15")
	}
	if count(0) != 0 {
		t.Fatal("non-intersecting pair matched at dist 0")
	}
}

func TestSelfJoinDistinctPairs(t *testing.T) {
	tree, err := New(Options{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(200, 24)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			if items[i].Rect.Intersects(items[j].Rect) {
				want++
			}
		}
	}
	got := 0
	if err := Join(tree, tree, func(a, b Item) bool {
		if a.ID < b.ID {
			got++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("self-join distinct pairs = %d, want %d", got, want)
	}
}

func TestScanAndItems(t *testing.T) {
	tree, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(300, 25)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	if err := tree.Scan(func(it Item) bool { seen[it.ID] = true; return true }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 300 {
		t.Fatalf("scan saw %d items", len(seen))
	}
	all, err := tree.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 300 {
		t.Fatalf("Items returned %d", len(all))
	}
}

func TestCompactIntoPublic(t *testing.T) {
	src, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(1000, 26)
	for _, it := range items {
		if err := src.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:500] {
		if _, err := src.Delete(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	srcM, err := src.Metrics()
	if err != nil {
		t.Fatal(err)
	}

	dst, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CompactInto(dst, PackSTR); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 500 {
		t.Fatalf("compacted len = %d", dst.Len())
	}
	dstM, err := dst.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if dstM.LeafNodes >= srcM.LeafNodes {
		t.Fatalf("compaction grew leaves: %d -> %d", srcM.LeafNodes, dstM.LeafNodes)
	}
	if err := dst.Validate(); err != nil {
		t.Fatal(err)
	}
	// Unknown packing propagates.
	empty, _ := New(Options{})
	if err := src.CompactInto(empty, Packing(77)); err == nil {
		t.Fatal("bad packing accepted")
	}
}

func TestBounds(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tree.Bounds(); err != nil || ok {
		t.Fatalf("empty tree bounds: ok=%v err=%v", ok, err)
	}
	if err := tree.Insert(R2(0.2, 0.3, 0.4, 0.5), 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.7, 0.1, 0.9, 0.2), 2); err != nil {
		t.Fatal(err)
	}
	b, ok, err := tree.Bounds()
	if err != nil || !ok {
		t.Fatalf("bounds: ok=%v err=%v", ok, err)
	}
	if !b.Equal(R2(0.2, 0.1, 0.9, 0.5)) {
		t.Fatalf("bounds = %v", b)
	}
}

func TestNearestDistanceValues(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.2, 0.2, 0.3, 0.3), 1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.8, 0.8, 0.9, 0.9), 2); err != nil {
		t.Fatal(err)
	}
	items, dists, err := tree.NearestK(Pt2(0.25, 0.25), 2)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].ID != 1 || dists[0] != 0 {
		t.Fatalf("first hit = %+v at %g", items[0], dists[0])
	}
	wantD := math.Hypot(0.8-0.25, 0.8-0.25)
	if items[1].ID != 2 || math.Abs(dists[1]-wantD) > 1e-12 {
		t.Fatalf("second hit = %+v at %g, want %g", items[1], dists[1], wantD)
	}
}

func mustTree(t *testing.T, opts Options) *Tree {
	t.Helper()
	tree, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestDeleteRange(t *testing.T) {
	tree := mustTree(t, Options{Capacity: 16})
	items := randItems(600, 73)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	q := R2(0.25, 0.25, 0.75, 0.75)
	want, err := tree.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := tree.DeleteRange(q)
	if err != nil {
		t.Fatal(err)
	}
	if removed != want {
		t.Fatalf("removed %d, expected %d", removed, want)
	}
	if left, err := tree.Count(q); err != nil || left != 0 {
		t.Fatalf("range not emptied: %d err %v", left, err)
	}
	if tree.Len() != 600-removed {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Read-only views refuse.
	v, err := tree.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.DeleteRange(q); err != ErrReadOnly {
		t.Fatalf("view DeleteRange: %v", err)
	}
}

func TestSaveTo(t *testing.T) {
	tree := mustTree(t, Options{Capacity: 16})
	items := randItems(400, 74)
	for _, it := range items {
		if err := tree.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "backup.str")
	if err := tree.SaveTo(path, PackSTR); err != nil {
		t.Fatal(err)
	}
	// Original unchanged.
	if tree.Len() != 400 {
		t.Fatalf("original len = %d", tree.Len())
	}
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 400 || re.Capacity() != 16 {
		t.Fatalf("backup len %d cap %d", re.Len(), re.Capacity())
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := tree.Count(R2(0.2, 0.2, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.Count(R2(0.2, 0.2, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("backup answers differ: %d vs %d", a, b)
	}
}

func TestDumpDOT(t *testing.T) {
	tree := mustTree(t, Options{Capacity: 4})
	if err := tree.BulkLoad(randItems(64, 75), PackSTR); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.DumpDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "digraph rtree {") || !strings.HasSuffix(strings.TrimSpace(s), "}") {
		t.Fatal("not a DOT document")
	}
	// 64 items at capacity 4: 16 leaves + 4 internal + root = 21 nodes.
	if got := strings.Count(s, "[label="); got != 21 {
		t.Fatalf("dot shows %d nodes, want 21", got)
	}
	if got := strings.Count(s, "->"); got != 20 {
		t.Fatalf("dot shows %d edges, want 20", got)
	}
}

// failingWriter accepts room bytes, then fails every write, counting the
// writes attempted after the first failure.
type failingWriter struct {
	room  int
	after int
	fail  bool
}

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.fail {
		w.after++
		return 0, errWriterFull
	}
	if len(p) > w.room {
		w.fail = true
		return w.room, errWriterFull
	}
	w.room -= len(p)
	return len(p), nil
}

// TestDumpDOTStopsAtWriteError: a write that fails inside the walk ends the
// walk and is the error returned — no further writes, no further pages.
func TestDumpDOTStopsAtWriteError(t *testing.T) {
	tree := mustTree(t, Options{Capacity: 4})
	if err := tree.BulkLoad(randItems(64, 75), PackSTR); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := tree.DumpDOT(&full); err != nil {
		t.Fatal(err)
	}
	for _, room := range []int{0, 20, 100, full.Len() / 2, full.Len() - 1} {
		w := &failingWriter{room: room}
		if err := tree.DumpDOT(w); !errors.Is(err, errWriterFull) {
			t.Fatalf("room %d: DumpDOT returned %v, want the write error", room, err)
		}
		if w.after != 0 {
			t.Fatalf("room %d: %d writes attempted after the failed one", room, w.after)
		}
	}
}

// TestWholeTreeReadersRejectLyingPages crafts pages that carry a valid CRC
// but lie about the structure — a leaf claiming a level above the root, a
// root referencing itself — and holds every whole-tree reader of the public
// API to a clean error wrapping node.ErrCorrupt. Before the walker checked
// levels the first panicked inside the walk's callers and the second
// recursed until the stack overflowed.
func TestWholeTreeReadersRejectLyingPages(t *testing.T) {
	rewrite := func(t *testing.T, tree *Tree, id storage.PageID, mutate func(n *node.Node)) {
		t.Helper()
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		pager := tree.pool.Pager()
		buf := make([]byte, pager.PageSize())
		if err := pager.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		var n node.Node
		if err := node.Unmarshal(buf, &n); err != nil {
			t.Fatal(err)
		}
		mutate(&n)
		if err := node.Marshal(&n, buf); err != nil {
			t.Fatal(err)
		}
		if err := pager.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := tree.DropCaches(); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(t *testing.T, tree *Tree){
		"wrong level": func(t *testing.T, tree *Tree) {
			// Page 1 is the first leaf a bulk load writes.
			rewrite(t, tree, 1, func(n *node.Node) { n.Level = tree.Height() + 3 })
		},
		"self reference": func(t *testing.T, tree *Tree) {
			root := tree.inner.Root()
			rewrite(t, tree, root, func(n *node.Node) { n.Entries[0].Ref = uint64(root) })
		},
	}
	for name, craft := range cases {
		t.Run(name, func(t *testing.T) {
			tree := mustTree(t, Options{Capacity: 4})
			if err := tree.BulkLoad(randItems(64, 75), PackSTR); err != nil {
				t.Fatal(err)
			}
			craft(t, tree)
			_, metricsErr := tree.Metrics()
			_, utilErr := tree.Utilization()
			for reader, err := range map[string]error{
				"Validate":              tree.Validate(),
				"CheckInvariants":       tree.CheckInvariants(),
				"CheckPackedInvariants": tree.CheckPackedInvariants(),
				"Metrics":               metricsErr,
				"Utilization":           utilErr,
				"DumpDOT":               tree.DumpDOT(io.Discard),
			} {
				if !errors.Is(err, node.ErrCorrupt) {
					t.Errorf("%s: want an error wrapping node.ErrCorrupt, got: %v", reader, err)
				}
			}
		})
	}
}
