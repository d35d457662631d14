package pack

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
)

func cube3() geom.Rect { return geom.UnitCube(3) }

// sliceSource yields entries as page records, all in one buffer it
// overwrites between calls.
func sliceSource(entries []node.Entry) func() ([]byte, bool, error) {
	i := 0
	var rec []byte
	return func() ([]byte, bool, error) {
		if i >= len(entries) {
			return nil, false, nil
		}
		rec = node.AppendRecord(rec[:0], entries[i].Rect, entries[i].Ref)
		i++
		return rec, true, nil
	}
}

// collectPack drains the external STR order of entries into one record
// array.
func collectPack(t *testing.T, s STRExternal, dims, n int, entries []node.Entry) ([]byte, SortStats) {
	t.Helper()
	ordered, err := s.Open(dims, n, sliceSource(entries))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for {
		rec, ok, err := ordered.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, rec...)
	}
	if err := ordered.Close(); err != nil {
		t.Fatal(err)
	}
	return out, ordered.Stats()
}

// TestExternalSTRMatchesInMemory: the external order is STR.OrderRecords'
// byte for byte. Both sorts are stable, so the orders agree on tied centre
// coordinates (the snapped input) as well as on tie-free ones, whether only
// the first-axis sort spills (256) or the slab sorts do too (16), and at
// k = 3 the slabs of slabs are cut as STR.tile cuts them.
func TestExternalSTRMatchesInMemory(t *testing.T) {
	const n = 100
	rng := rand.New(rand.NewSource(91))
	snapped := make([]node.Entry, 5000)
	for i := range snapped {
		// Equal squares centred on a 21x21 grid: about eleven entries share
		// each centre exactly.
		x, y := float64(rng.Intn(21))/20, float64(rng.Intn(21))/20
		snapped[i] = node.Entry{Rect: geom.R2(x-0.01, y-0.01, x+0.01, y+0.01), Ref: uint64(i)}
	}
	cubes := make([]node.Entry, 5000)
	for i := range cubes {
		// Unit cubes on a 9x9x9 grid: centres tie on every axis.
		lo := geom.Point{float64(rng.Intn(9)), float64(rng.Intn(9)), float64(rng.Intn(9))}
		cubes[i] = node.Entry{Rect: geom.Rect{Min: lo, Max: geom.Point{lo[0] + 1, lo[1] + 1, lo[2] + 1}}, Ref: uint64(i)}
	}
	for _, in := range []struct {
		name    string
		entries []node.Entry
		sorts   uint64 // one on the first axis plus one per slab reached
	}{
		{"tie-free", uniformSquares(5000, 91), 1 + 7},
		{"snapped", snapped, 1 + 7},
		// P = 50: 4 slabs of n*ceil(50^(2/3)) = 1400 (the last 800); a
		// full one is cut into 4 sub-slabs of n*ceil(14^(1/2)) = 400, the
		// last into 3 of n*ceil(8^(1/2)) = 300.
		{"3-D tied", cubes, 1 + 4 + 3*4 + 3},
	} {
		dims := in.entries[0].Rect.Dim()
		recs, _ := psort.Encode(in.entries, 1)
		want := STR{}.OrderRecords(recs, dims, n, 0)
		for _, runSize := range []int{256, 16} {
			got, stats := collectPack(t, STRExternal{RunSize: runSize, TmpDir: t.TempDir()}, dims, n, in.entries)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, run size %d: external order (%d bytes) differs from STR.OrderRecords (%d bytes)", in.name, runSize, len(got), len(want))
			}
			if stats.Sorts != in.sorts || stats.EntriesSorted != uint64(dims)*5000 {
				t.Fatalf("%s, run size %d: stats %+v, want %d sorts of %d entries", in.name, runSize, stats, in.sorts, dims*5000)
			}
		}
	}
}

// TestExternalSTRAbandonedMidSlab closes the stream while both the x-merge
// and a spilled y-sort hold run files open.
func TestExternalSTRAbandonedMidSlab(t *testing.T) {
	dir := t.TempDir()
	ordered, err := STRExternal{RunSize: 16, TmpDir: dir, Workers: 4}.Open(2, 100, sliceSource(uniformSquares(5000, 93)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, ok, err := ordered.Next(); !ok || err != nil {
			t.Fatalf("entry %d: ok %v, err %v", i, ok, err)
		}
	}
	if err := ordered.Close(); err != nil {
		t.Fatal(err)
	}
	if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
		t.Fatalf("%d run files left after Close (ReadDir error %v)", len(names), err)
	}
}

func TestExternalSTRTinyAndEmpty(t *testing.T) {
	s := STRExternal{RunSize: 16, TmpDir: t.TempDir()}
	for dims := 1; dims <= 3; dims++ {
		if got, _ := collectPack(t, s, dims, 10, nil); len(got) != 0 {
			t.Fatalf("%d-D: empty input emitted %d bytes", dims, len(got))
		}
	}
	one := uniformSquares(1, 92)
	if got, _ := collectPack(t, s, 2, 10, one); !bytes.Equal(got, node.AppendRecord(nil, one[0].Rect, one[0].Ref)) {
		t.Fatalf("single entry mishandled: %v", got)
	}
}

// TestExternalSTRRejects3D: a 3-D record in a 2-D stream is refused at
// ingest, as are a capacity below 1 and a dimensionality below 1.
func TestExternalSTRRejects3D(t *testing.T) {
	s := STRExternal{RunSize: 16, TmpDir: t.TempDir()}
	if _, err := s.Open(2, 10, sliceSource([]node.Entry{{Rect: cube3()}})); err == nil {
		t.Fatal("3-D entry accepted")
	}
	if _, err := s.Open(0, 10, sliceSource(nil)); err == nil {
		t.Fatal("0-D stream accepted")
	}
	if _, err := s.Open(2, 0, sliceSource(nil)); err == nil {
		t.Fatal("node capacity 0 accepted")
	}
}

func TestExternalSTRDefaultRunSize(t *testing.T) {
	if (STRExternal{}).runSize() != 1<<20 {
		t.Fatal("default run size wrong")
	}
	if (STRExternal{RunSize: 7}).runSize() != 7 {
		t.Fatal("explicit run size ignored")
	}
}
