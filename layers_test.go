package strtree

import (
	"errors"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"strtree/internal/storage"
)

func TestLayersInMemory(t *testing.T) {
	ls, err := NewLayers(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	parcels, err := ls.Create("parcels")
	if err != nil {
		t.Fatal(err)
	}
	roads, err := ls.Create("roads")
	if err != nil {
		t.Fatal(err)
	}
	if err := parcels.BulkLoad(randItems(300, 81), PackSTR); err != nil {
		t.Fatal(err)
	}
	for _, it := range randItems(200, 82) {
		if err := roads.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	if parcels.Len() != 300 || roads.Len() != 200 {
		t.Fatalf("lens %d / %d", parcels.Len(), roads.Len())
	}
	if err := parcels.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := roads.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both layers hold the universal invariants on the shared storage
	// (roads was insert-built, so only parcels is packed).
	if err := parcels.CheckPackedInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := roads.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Cross-layer join works on the shared storage.
	pairs := 0
	if err := Join(parcels, roads, func(a, b Item) bool { pairs++; return true }); err != nil {
		t.Fatal(err)
	}
	if pairs == 0 {
		t.Fatal("no cross-layer pairs on overlapping random data")
	}
	got := ls.Names()
	if len(got) != 2 || got[0] != "parcels" || got[1] != "roads" {
		t.Fatalf("Names = %v", got)
	}
}

func TestLayersPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layers.str")
	ls, err := CreateLayers(path, Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ls.Create("alpha")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ls.Create("beta")
	if err != nil {
		t.Fatal(err)
	}
	itemsA := randItems(250, 83)
	itemsB := randItems(100, 84)
	if err := a.BulkLoad(itemsA, PackSTR); err != nil {
		t.Fatal(err)
	}
	if err := b.BulkLoad(itemsB, PackHilbert); err != nil {
		t.Fatal(err)
	}
	wantA, err := a.Count(R2(0.2, 0.2, 0.7, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLayers(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if names := re.Names(); len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("reopened names = %v", names)
	}
	ra, err := re.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if ra.Len() != 250 {
		t.Fatalf("alpha len = %d", ra.Len())
	}
	if err := ra.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := ra.Count(R2(0.2, 0.2, 0.7, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if got != wantA {
		t.Fatalf("count after reopen = %d, want %d", got, wantA)
	}
	rb, err := re.Open("beta")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Len() != 100 {
		t.Fatalf("beta len = %d", rb.Len())
	}
	// Repeated Open returns the same handle.
	rb2, err := re.Open("beta")
	if err != nil {
		t.Fatal(err)
	}
	if rb2 != rb {
		t.Fatal("Open created a second handle")
	}
}

func TestLayersErrors(t *testing.T) {
	ls, err := NewLayers(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Create(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := ls.Create(strings.Repeat("x", 40)); err == nil {
		t.Error("overlong name accepted")
	}
	if _, err := ls.Create("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Create("dup"); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := ls.Open("missing"); !errors.Is(err, ErrNoLayer) {
		t.Errorf("open missing: %v", err)
	}
	// Opening a non-layer file fails cleanly.
	path := filepath.Join(t.TempDir(), "plain.str")
	tree, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLayers(path, Options{}); err == nil {
		t.Error("plain index opened as layer set")
	}
}

func TestLayerCloseDoesNotKillSiblings(t *testing.T) {
	ls, err := NewLayers(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ls.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ls.Create("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(R2(0, 0, 0.1, 0.1), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Layer b keeps working after a's Close.
	if err := b.Insert(R2(0.5, 0.5, 0.6, 0.6), 2); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Count(R2(0, 0, 1, 1)); err != nil || n != 1 {
		t.Fatalf("b count %d err %v", n, err)
	}
}

func TestLayersSharedStats(t *testing.T) {
	ls, err := NewLayers(Options{BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ls.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.BulkLoad(randItems(1000, 85), PackSTR); err != nil {
		t.Fatal(err)
	}
	ls.ResetStats()
	if _, err := a.Count(R2(0.4, 0.4, 0.6, 0.6)); err != nil {
		t.Fatal(err)
	}
	if ls.Stats().LogicalReads == 0 {
		t.Fatal("layer reads not visible in set stats")
	}
}

// TestLayersBufferShards: a layer set builds its buffer like a Tree does,
// so Options.BufferShards reaches every layer's ShardStats.
func TestLayersBufferShards(t *testing.T) {
	for _, c := range []struct{ shards, want int }{{0, 1}, {4, 4}} {
		ls, err := NewLayers(Options{BufferShards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := ls.Create("a")
		if err != nil {
			t.Fatal(err)
		}
		if got := len(tree.ShardStats()); got != c.want {
			t.Errorf("BufferShards %d: layer has %d buffer shards, want %d", c.shards, got, c.want)
		}
	}
}

// tracePager records the sequence of WritePage calls passing through it:
// each call's first page, and beside it how many pages it wrote.
type tracePager struct {
	storage.Pager
	writes []storage.PageID
	pages  []int
}

func (p *tracePager) WritePage(id storage.PageID, buf []byte) error {
	p.writes = append(p.writes, id)
	p.pages = append(p.pages, len(buf)/p.PageSize())
	return p.Pager.WritePage(id, buf)
}

// TestLayersFlushOrderDeterministic is the regression test for Flush
// ranging the opened-layers map directly: the per-layer metadata writes
// must land in sorted name order no matter what order the layers were
// created in. Each layer's Flush re-dirties its meta page and writes it
// out immediately, so the last write of each meta page during
// LayerSet.Flush observes the layer iteration order.
func TestLayersFlushOrderDeterministic(t *testing.T) {
	sorted := []string{"aquifers", "bridges", "canals", "dams", "easements", "fences"}
	orders := [][]string{
		{"fences", "bridges", "easements", "aquifers", "dams", "canals"},
		{"canals", "dams", "aquifers", "easements", "bridges", "fences"},
		sorted,
	}
	for _, order := range orders {
		tp := &tracePager{Pager: storage.NewMemPager(4096)}
		opts := Options{Capacity: 16, Workers: 1}.withDefaults()
		ls, err := newLayerSet(tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range order {
			tr, err := ls.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range randItems(20, int64(100+i)) {
				if err := tr.Insert(it.Rect, it.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		tp.writes, tp.pages = nil, nil
		if err := ls.Flush(); err != nil {
			t.Fatal(err)
		}
		metaName := map[storage.PageID]string{}
		for name, id := range ls.catalog {
			metaName[id] = name
		}
		last := map[storage.PageID]int{}
		for i, id := range tp.writes {
			if _, ok := metaName[id]; ok {
				last[id] = i
			}
		}
		if len(last) != len(sorted) {
			t.Fatalf("create order %v: %d meta pages written during Flush, want %d", order, len(last), len(sorted))
		}
		type lastWrite struct {
			name string
			idx  int
		}
		var seq []lastWrite
		for id, i := range last {
			seq = append(seq, lastWrite{metaName[id], i})
		}
		sort.Slice(seq, func(a, b int) bool { return seq[a].idx < seq[b].idx })
		var got []string
		for _, lw := range seq {
			got = append(got, lw.name)
		}
		if !slices.Equal(got, sorted) {
			t.Errorf("create order %v: meta write order %v, want sorted %v", order, got, sorted)
		}
	}
}
