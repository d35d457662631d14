package rtree

import (
	"errors"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

func sliceStream(entries []node.Entry) func() (node.Entry, bool, error) {
	i := 0
	return func() (node.Entry, bool, error) {
		if i >= len(entries) {
			return node.Entry{}, false, nil
		}
		e := entries[i]
		i++
		return e, true, nil
	}
}

func TestBulkLoadOrderedMatchesBulkLoad(t *testing.T) {
	entries := randRects(1234, 81)
	ordered := append([]node.Entry(nil), entries...)
	xSortOrderer{}.Order(ordered, 16, 0)

	a := newTree(t, 16)
	if err := a.BulkLoad(append([]node.Entry(nil), entries...), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	b := newTree(t, 16)
	if err := b.BulkLoadOrdered(sliceStream(ordered), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != a.Len() || b.Height() != a.Height() {
		t.Fatalf("stream build: len %d/%d height %d/%d", b.Len(), a.Len(), b.Height(), a.Height())
	}
	if err := b.Check(CheckConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Rect{
		geom.R2(0, 0, 0.3, 0.3), geom.R2(0.4, 0.4, 0.8, 0.9), geom.UnitSquare(),
	} {
		ca, err := a.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb {
			t.Fatalf("counts differ for %v: %d vs %d", q, ca, cb)
		}
	}
}

func TestBulkLoadOrderedEmptyAndErrors(t *testing.T) {
	tr := newTree(t, 8)
	if err := tr.BulkLoadOrdered(sliceStream(nil), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 0 {
		t.Fatalf("empty stream built height %d", tr.Height())
	}
	// Non-empty tree rejected.
	if err := tr.Insert(geom.R2(0, 0, 0.1, 0.1), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoadOrdered(sliceStream(randRects(5, 82)), xSortOrderer{}); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v", err)
	}
	// Stream error propagates.
	tr2 := newTree(t, 8)
	boom := errors.New("boom")
	n := 0
	err := tr2.BulkLoadOrdered(func() (node.Entry, bool, error) {
		n++
		if n > 3 {
			return node.Entry{}, false, boom
		}
		return randRects(1, int64(n))[0], true, nil
	}, xSortOrderer{})
	if !errors.Is(err, boom) {
		t.Fatalf("stream error lost: %v", err)
	}
	// Bad entry rejected.
	tr3 := newTree(t, 8)
	bad := []node.Entry{{Rect: geom.UnitCube(3), Ref: 1}}
	if err := tr3.BulkLoadOrdered(sliceStream(bad), xSortOrderer{}); err == nil {
		t.Fatal("3-D entry accepted")
	}
}

func TestBulkLoadOrderedUtilization(t *testing.T) {
	ordered := randRects(1000, 83)
	xSortOrderer{}.Order(ordered, 10, 0)
	tr := newTree(t, 10)
	if err := tr.BulkLoadOrdered(sliceStream(ordered), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	perLevel, err := tr.NodesPerLevel()
	if err != nil {
		t.Fatal(err)
	}
	if len(perLevel) != 3 || perLevel[2] != 100 {
		t.Fatalf("NodesPerLevel = %v", perLevel)
	}
}
