package rtree

import (
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

func TestEvictFarthest(t *testing.T) {
	entries := []node.Entry{
		{Rect: geom.R2(0.49, 0.49, 0.51, 0.51), Ref: 1}, // center
		{Rect: geom.R2(0.0, 0.0, 0.02, 0.02), Ref: 3},   // far corner
		{Rect: geom.R2(0.48, 0.48, 0.52, 0.52), Ref: 2}, // center
		{Rect: geom.R2(0.97, 0.97, 1.0, 1.0), Ref: 4},   // far corner
	}
	st := &stage{recs: recordsOf(entries)}
	box := geom.UnitSquare()
	evicted, kept := st.evictFarthest(2, 2, &box)
	if len(evicted) != 2 || len(kept) != 2*node.EntrySize(2) {
		t.Fatalf("evicted %d, kept %d record bytes", len(evicted), len(kept))
	}
	if evicted[0].Ref != 3 || evicted[1].Ref != 4 {
		t.Fatalf("evicted %v, want the far corners 3 and 4 in entry order", evicted)
	}
	if want := []node.Entry{entries[0], entries[2]}; !sameEntries(entriesOf(kept, 2), want) || !sameBits(box, geom.MBR(rects(want))) {
		t.Fatalf("kept %v with MBR %v, want the central two in entry order", entriesOf(kept, 2), box)
	}
	// At least one entry is always evicted.
	if got, _ := st.evictFarthest(2, 0, &box); len(got) != 1 {
		t.Fatalf("zero-count eviction returned %d", len(got))
	}
}

func TestForcedReinsertInsertCorrect(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 512)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 10, ForcedReinsert: true})
	if err != nil {
		t.Fatal(err)
	}
	entries := randRects(1500, 85)
	for _, e := range entries {
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 1500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	checkSearchAgainstBrute(t, tr, entries, 86)
}

func TestForcedReinsertImprovesQuality(t *testing.T) {
	entries := randRects(3000, 87)
	leafArea := func(cfg Config) float64 {
		pool := buffer.NewPool(storage.NewMemPager(4096), 1024)
		tr, err := Create(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := tr.Insert(e.Rect, e.Ref); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Check(CheckConfig{}); err != nil {
			t.Fatal(err)
		}
		area := 0.0
		mbr := geom.R2(0, 0, 0, 0)
		if err := tr.Walk(func(_ storage.PageID, v node.View) bool {
			if v.IsLeaf() {
				v.MBRInto(&mbr)
				area += mbr.Area()
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return area
	}
	plain := leafArea(Config{Dims: 2, Capacity: 16})
	reins := leafArea(Config{Dims: 2, Capacity: 16, ForcedReinsert: true})
	if reins > plain*1.10 {
		t.Fatalf("forced reinsert leaf area %.4f much worse than plain %.4f", reins, plain)
	}
}

func TestForcedReinsertPersists(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 64)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 8, ForcedReinsert: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geom.R2(0, 0, 0.1, 0.1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(pool)
	if err != nil {
		t.Fatal(err)
	}
	if !re.forcedReinsert {
		t.Fatal("forcedReinsert flag lost across reopen")
	}
}

func TestForcedReinsertWithDeletes(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 512)
	tr, err := Create(pool, Config{Dims: 2, Capacity: 8, ForcedReinsert: true})
	if err != nil {
		t.Fatal(err)
	}
	entries := randRects(500, 88)
	for _, e := range entries {
		if err := tr.Insert(e.Rect, e.Ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries[:250] {
		ok, err := tr.Delete(e.Rect, e.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("ref %d missing", e.Ref)
		}
	}
	if err := tr.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	checkSearchAgainstBrute(t, tr, entries[250:], 89)
}
