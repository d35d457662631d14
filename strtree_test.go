package strtree

import (
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func randItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Item, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		r, _ := NewRect(Pt2(x, y), Pt2(x+rng.Float64()*0.03, y+rng.Float64()*0.03))
		out[i] = Item{Rect: r, ID: uint64(i)}
	}
	return out
}

func TestQuickstartFlow(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(5000, 1)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 5000 || tree.Dims() != 2 || tree.Capacity() != 102 {
		t.Fatalf("len %d dims %d cap %d", tree.Len(), tree.Dims(), tree.Capacity())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckPackedInvariants(); err != nil {
		t.Fatal(err)
	}
	q := R2(0.4, 0.4, 0.6, 0.6)
	want := 0
	for _, it := range items {
		if q.Intersects(it.Rect) {
			want++
		}
	}
	got, err := tree.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	all, err := tree.All(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != want {
		t.Fatalf("All = %d items", len(all))
	}
}

func TestAllPackingsBuildEquivalentContent(t *testing.T) {
	items := randItems(2000, 2)
	q := R2(0.1, 0.1, 0.35, 0.35)
	var counts []int
	for _, p := range []Packing{PackSTR, PackHilbert, PackNearestX, PackTGS} {
		tree, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.BulkLoad(items, p); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := tree.CheckPackedInvariants(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		c, err := tree.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, c)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("packings disagree on results: %v", counts)
		}
	}
}

func TestPackingString(t *testing.T) {
	cases := map[Packing]string{
		PackSTR: "STR", PackHilbert: "HS", PackNearestX: "NX",
		PackTGS:     "TGS",
		Packing(99): "Packing(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestUnknownPackingRejected(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(randItems(10, 3), Packing(99)); err == nil {
		t.Fatal("unknown packing accepted")
	}
}

func TestDynamicInsertDelete(t *testing.T) {
	tree, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(500, 4)
	for _, it := range items {
		if err := tree.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, it := range items[:250] {
		ok, err := tree.Delete(it.Rect, it.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("item %d not deleted", it.ID)
		}
	}
	if tree.Len() != 250 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// The universal invariants (not the packed fill factor) must survive
	// arbitrary insert/delete churn.
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountDiskAccesses(t *testing.T) {
	tree, err := New(Options{BufferPages: 8, Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(randItems(3000, 5), PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := tree.DropCaches(); err != nil {
		t.Fatal(err)
	}
	tree.ResetStats()
	if _, err := tree.Count(R2(0.5, 0.5, 0.52, 0.52)); err != nil {
		t.Fatal(err)
	}
	s := tree.Stats()
	if s.DiskReads == 0 || s.LogicalReads < s.DiskReads {
		t.Fatalf("stats = %+v", s)
	}
	tree.ResetStats()
	if got := tree.Stats(); got != (IOStats{}) {
		t.Fatalf("stats after reset = %+v", got)
	}
}

func TestFileBackedCreateOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.str")
	tree, err := Create(path, Options{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	items := randItems(1000, 6)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	wantCount, err := tree.Count(R2(0, 0, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, Options{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1000 || re.Capacity() != 32 {
		t.Fatalf("reopened len %d cap %d", re.Len(), re.Capacity())
	}
	got, err := re.Count(R2(0, 0, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCount {
		t.Fatalf("count after reopen = %d, want %d", got, wantCount)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.str"), Options{}); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestMetrics(t *testing.T) {
	tree, err := New(Options{Capacity: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(randItems(2500, 7), PackSTR); err != nil {
		t.Fatal(err)
	}
	m, err := tree.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.LeafNodes != 50 || m.Nodes != 51 {
		t.Fatalf("nodes %d leaves %d", m.Nodes, m.LeafNodes)
	}
	if m.LeafArea <= 0 || m.LeafPerimeter <= 0 {
		t.Fatalf("metrics %+v", m)
	}
	if m.TotalArea < m.LeafArea || m.TotalPerimeter < m.LeafPerimeter {
		t.Fatalf("totals below leaf values: %+v", m)
	}
}

func TestSearchPointPublic(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(R2(0.1, 0.1, 0.2, 0.2), 42); err != nil {
		t.Fatal(err)
	}
	found := false
	if err := tree.SearchPoint(Pt2(0.15, 0.15), func(it Item) bool {
		found = it.ID == 42
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("point search missed the item")
	}
}

func TestPropPackedSearchMatchesBrute(t *testing.T) {
	items := randItems(1500, 8)
	tree, err := New(Options{Capacity: 25})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		x, y := rng.Float64(), rng.Float64()
		e := rng.Float64() * 0.2
		q, _ := NewRect(Pt2(x, y), Pt2(min1(x+e), min1(y+e)))
		want := 0
		for _, it := range items {
			if q.Intersects(it.Rect) {
				want++
			}
		}
		got, err := tree.Count(q)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
