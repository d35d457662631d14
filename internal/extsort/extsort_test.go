package extsort

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
)

func randEntries(n int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]node.Entry, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		out[i] = node.Entry{Rect: geom.R2(x, y, x+0.01, y+0.01), Ref: uint64(i)}
	}
	return out
}

func sliceSource(entries []node.Entry) func() (node.Entry, bool) {
	i := 0
	return func() (node.Entry, bool) {
		if i >= len(entries) {
			return node.Entry{}, false
		}
		e := entries[i]
		i++
		return e, true
	}
}

func TestNewSorterValidation(t *testing.T) {
	if _, err := NewSorter(0, 100, ""); err == nil {
		t.Error("dims 0 accepted")
	}
	if _, err := NewSorter(2, 1, ""); err == nil {
		t.Error("run size 1 accepted")
	}
}

func TestSortInMemoryPath(t *testing.T) {
	// Fewer entries than the run size: no temp files.
	s, err := NewSorter(2, 1000, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := randEntries(100, 1)
	var got []node.Entry
	if err := s.Sort(ByCenter(0), sliceSource(entries), func(e node.Entry) error {
		got = append(got, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, got, entries, 0)
}

func TestSortSpillsAndMerges(t *testing.T) {
	// Run size 64 forces ~16 runs for 1000 entries.
	s, err := NewSorter(2, 64, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := randEntries(1000, 2)
	var got []node.Entry
	if err := s.Sort(ByCenter(1), sliceSource(entries), func(e node.Entry) error {
		got = append(got, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, got, entries, 1)
}

// TestSortMatchesStableSort pins the merge's tie-break: on heavily tied
// keys the merged stream is the stable sort of the whole input, at run
// sizes from "never spills" down to many short runs.
func TestSortMatchesStableSort(t *testing.T) {
	entries := dupEntries(3000)
	want := append([]node.Entry(nil), entries...)
	sort.SliceStable(want, func(i, j int) bool {
		return want[i].Rect.CenterAxis(0) < want[j].Rect.CenterAxis(0)
	})
	for _, runSize := range []int{4096, 999, 128, 7} {
		s, err := NewSorter(2, runSize, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		if err := s.Sort(ByCenter(0), sliceSource(entries), func(e node.Entry) error {
			if e.Ref != want[i].Ref {
				t.Fatalf("run size %d: position %d holds ref %d, a stable sort puts ref %d there", runSize, i, e.Ref, want[i].Ref)
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(want) {
			t.Fatalf("run size %d: emitted %d of %d", runSize, i, len(want))
		}
	}
}

// TestIngestYieldsSortedRecords holds the record pipeline to the in-memory
// kernel byte for byte: at every run size — one in-memory run, runs of
// several read-ahead batches, runs shorter than one — and worker count, the
// stream yields exactly the records psort.Perm's stable sort gathers.
func TestIngestYieldsSortedRecords(t *testing.T) {
	entries := dupEntries(3000)
	recs, _ := psort.Encode(entries, 1)
	p := psort.NewPerm(recs, 2)
	p.SortByCenter(0, p.Len(), 0, 1)
	want := p.Apply(1)
	size := node.EntrySize(2)
	for _, runSize := range []int{4096, 1500, 999, 100} {
		for _, workers := range []int{1, 3} {
			s, err := NewSorter(2, runSize, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s.Workers = workers
			st, err := s.Ingest(ByCenter(0), recordSource(entries))
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ; ; i++ {
				rec, ok, err := st.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if i >= len(entries) || !bytes.Equal(rec, want[i*size:(i+1)*size]) {
					t.Fatalf("run size %d, workers %d: record %d differs from the in-memory sort's", runSize, workers, i)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if i != len(entries) {
				t.Fatalf("run size %d, workers %d: %d of %d records", runSize, workers, i, len(entries))
			}
		}
	}
}

func TestSortEmptyInput(t *testing.T) {
	s, err := NewSorter(2, 10, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sort(ByCenter(0), sliceSource(nil), func(node.Entry) error {
		t.Fatal("emit on empty input")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSortRejectsDimMismatch(t *testing.T) {
	s, err := NewSorter(3, 10, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := randEntries(5, 4) // 2-D entries into a 3-D sorter
	err = s.Sort(ByCenter(0), sliceSource(entries), func(node.Entry) error { return nil })
	if err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSort3D(t *testing.T) {
	s, err := NewSorter(3, 32, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var entries []node.Entry
	for i := 0; i < 300; i++ {
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		entries = append(entries, node.Entry{Rect: geom.PointRect(p), Ref: uint64(i)})
	}
	var got []node.Entry
	if err := s.Sort(ByCenter(2), sliceSource(entries), func(e node.Entry) error {
		got = append(got, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("emitted %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Rect.CenterAxis(2) < got[i-1].Rect.CenterAxis(2) {
			t.Fatalf("z order violated at %d", i)
		}
	}
}

func checkSorted(t *testing.T, got, input []node.Entry, axis int) {
	t.Helper()
	if len(got) != len(input) {
		t.Fatalf("emitted %d of %d entries", len(got), len(input))
	}
	seen := map[uint64]bool{}
	for i, e := range got {
		if seen[e.Ref] {
			t.Fatalf("ref %d duplicated", e.Ref)
		}
		seen[e.Ref] = true
		if i > 0 && e.Rect.CenterAxis(axis) < got[i-1].Rect.CenterAxis(axis) {
			t.Fatalf("order violated at %d", i)
		}
		if !e.Rect.Equal(input[e.Ref].Rect) {
			t.Fatalf("ref %d rect corrupted in transit", e.Ref)
		}
	}
}

func BenchmarkExternalSort100k(b *testing.B) {
	entries := randEntries(100000, 6)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSorter(2, 8192, dir)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := s.Sort(ByCenter(0), sliceSource(entries), func(node.Entry) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != len(entries) {
			b.Fatal("lost entries")
		}
	}
}
