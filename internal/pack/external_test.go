package pack

import (
	"math/rand"
	"os"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

func cube3() geom.Rect { return geom.UnitCube(3) }

func sliceSource(entries []node.Entry) func() (node.Entry, bool, error) {
	i := 0
	return func() (node.Entry, bool, error) {
		if i >= len(entries) {
			return node.Entry{}, false, nil
		}
		i++
		return entries[i-1], true, nil
	}
}

func collectPack(t *testing.T, s STRExternal, n int, entries []node.Entry) ([]node.Entry, SortStats) {
	t.Helper()
	ordered, err := s.Open(n, sliceSource(entries))
	if err != nil {
		t.Fatal(err)
	}
	var out []node.Entry
	for {
		e, ok, err := ordered.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, e)
	}
	if err := ordered.Close(); err != nil {
		t.Fatal(err)
	}
	return out, ordered.Stats()
}

func TestExternalSTRMatchesInMemory(t *testing.T) {
	// Both sorts are stable, so the orders agree on tied center
	// coordinates (the snapped input) as well as on tie-free ones, whether
	// only the x phase spills (256) or the y slabs do too (16).
	const n = 100
	rng := rand.New(rand.NewSource(91))
	snapped := make([]node.Entry, 5000)
	for i := range snapped {
		// Equal squares centred on a 21x21 grid: about eleven entries share
		// each centre exactly.
		x, y := float64(rng.Intn(21))/20, float64(rng.Intn(21))/20
		snapped[i] = node.Entry{Rect: geom.R2(x-0.01, y-0.01, x+0.01, y+0.01), Ref: uint64(i)}
	}
	for name, base := range map[string][]node.Entry{"tie-free": uniformSquares(5000, 91), "snapped": snapped} {
		inMem := append([]node.Entry(nil), base...)
		STR{}.Order(inMem, n, 0)
		for _, runSize := range []int{256, 16} {
			ext, stats := collectPack(t, STRExternal{RunSize: runSize, TmpDir: t.TempDir()}, n, base)
			if len(ext) != len(inMem) {
				t.Fatalf("%s, run size %d: external emitted %d of %d", name, runSize, len(ext), len(inMem))
			}
			for i := range inMem {
				if ext[i].Ref != inMem[i].Ref {
					t.Fatalf("%s, run size %d: orders diverge at position %d: %d vs %d", name, runSize, i, ext[i].Ref, inMem[i].Ref)
				}
			}
			// One x-sort plus one y-sort per slab of n*ceil(sqrt(50)) entries.
			if want := uint64(1 + 7); stats.Sorts != want || stats.EntriesSorted != 2*5000 {
				t.Fatalf("%s, run size %d: stats %+v, want %d sorts of %d entries", name, runSize, stats, want, 2*5000)
			}
		}
	}
}

// TestExternalSTRAbandonedMidSlab closes the stream while both the x-merge
// and a spilled y-sort hold run files open.
func TestExternalSTRAbandonedMidSlab(t *testing.T) {
	dir := t.TempDir()
	ordered, err := STRExternal{RunSize: 16, TmpDir: dir, Workers: 4}.Open(100, sliceSource(uniformSquares(5000, 93)))
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
	if got, _ := collectPack(t, s, 10, nil); len(got) != 0 {
		t.Fatalf("empty input emitted %d", len(got))
	}
	one := uniformSquares(1, 92)
	if got, _ := collectPack(t, s, 10, one); len(got) != 1 || got[0].Ref != one[0].Ref {
		t.Fatalf("single entry mishandled: %v", got)
	}
}

func TestExternalSTRRejects3D(t *testing.T) {
	s := STRExternal{RunSize: 16, TmpDir: t.TempDir()}
	if _, err := s.Open(10, sliceSource([]node.Entry{{Rect: cube3()}})); err == nil {
		t.Fatal("3-D entry accepted")
	}
	if _, err := s.Open(0, sliceSource(nil)); err == nil {
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
