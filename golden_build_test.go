package strtree

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestBulkLoadGoldenDigests pins the index file every bulk load writes,
// across commits: each case builds a fixed input and compares the FNV-64a of
// the whole file with a constant recorded when the case was added. The
// other identity tests compare builds within one commit (worker counts, the
// external builder against the in-memory one); only this one notices a
// loader that writes a different but valid tree. The external rows
// (BulkLoadExternal at a RunSize) share their in-memory STR row's constant:
// spilling or not, the two loaders write one file. A changed digest means
// the packing order, an MBR or the page image changed: regenerate the
// constants only for a change that means to.
func TestBulkLoadGoldenDigests(t *testing.T) {
	squares := uniformSquareItems(20000, 32)
	cases := []struct {
		name    string
		opts    Options
		items   []Item
		packing Packing
		want    string
		runSize int // > 0: BulkLoadExternal at this RunSize instead of BulkLoad(packing)
	}{
		{"STR/w1", Options{Workers: 1}, squares, PackSTR, "70761f0a19c1203e", 0},
		{"STR/w4", Options{Workers: 4}, squares, PackSTR, "70761f0a19c1203e", 0},
		{"HS/w1", Options{Workers: 1}, squares, PackHilbert, "96a2326b295d94b8", 0},
		{"HS/w4", Options{Workers: 4}, squares, PackHilbert, "96a2326b295d94b8", 0},
		{"NX/w1", Options{Workers: 1}, squares, PackNearestX, "1000526ca48cbc8d", 0},
		{"NX/w4", Options{Workers: 4}, squares, PackNearestX, "1000526ca48cbc8d", 0},
		{"TGS/w1", Options{Workers: 1}, squares, PackTGS, "87c2c555a0d8498e", 0},
		{"TGS/w4", Options{Workers: 4}, squares, PackTGS, "87c2c555a0d8498e", 0},
		{"STR-3d-tied/w2", Options{Dims: 3, Workers: 2}, tiedCubeItems(9000, 33), PackSTR, "3ccae6391d140d37", 0},
		{"STR-edges/w1", Options{Capacity: 8, Workers: 1}, edgeItems(600, 34), PackSTR, "d0fd046aacb64060", 0},
		{"HS-edges/w1", Options{Capacity: 8, Workers: 1}, edgeItems(600, 34), PackHilbert, "a1ac549ec5ed1eee", 0},
		{"NX-edges/w1", Options{Capacity: 8, Workers: 1}, edgeItems(600, 34), PackNearestX, "4a6a9fcbe753ec77", 0},
		{"TGS-edges/w1", Options{Capacity: 8, Workers: 1}, edgeItems(600, 34), PackTGS, "b2000967e9526cb5", 0},
		{"STR-external-run64/w1", Options{Workers: 1}, squares, PackSTR, "70761f0a19c1203e", 64},
		{"STR-external-run64/w4", Options{Workers: 4}, squares, PackSTR, "70761f0a19c1203e", 64},
		{"STR-external-run1M/w1", Options{Workers: 1}, squares, PackSTR, "70761f0a19c1203e", 1 << 20},
		{"STR-external-run1M/w4", Options{Workers: 4}, squares, PackSTR, "70761f0a19c1203e", 1 << 20},
		{"STR-3d-tied-external-run999/w2", Options{Dims: 3, Workers: 2}, tiedCubeItems(9000, 33), PackSTR, "3ccae6391d140d37", 999},
		{"STR-edges-external-run64/w1", Options{Capacity: 8, Workers: 1}, edgeItems(600, 34), PackSTR, "d0fd046aacb64060", 64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "index.str")
			tree, err := Create(path, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.runSize > 0 {
				err = tree.BulkLoadExternal(itemSource(c.items), ExternalOptions{RunSize: c.runSize, TmpDir: t.TempDir()})
			} else {
				err = tree.BulkLoad(append([]Item(nil), c.items...), c.packing)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
				t.Errorf("%s: index file (%d bytes) has FNV-64a %s, want %s", c.name, len(data), got, c.want)
			}
		})
	}
}

// uniformSquareItems draws n squares with uniform corners in the unit
// square and sides up to 0.01.
func uniformSquareItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Item, n)
	for i := range out {
		x, y, s := rng.Float64(), rng.Float64(), rng.Float64()*0.01
		out[i] = Item{Rect: R2(x, y, x+s, y+s), ID: uint64(i)}
	}
	return out
}

// tiedCubeItems places unit cubes on a coarse 3-D grid, so centres tie on
// every axis and only stable sorts reproduce the order.
func tiedCubeItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Item, n)
	for i := range out {
		lo := Point{float64(rng.Intn(12)), float64(rng.Intn(12)), float64(rng.Intn(12))}
		out[i] = Item{Rect: Rect{Min: lo, Max: Point{lo[0] + 1, lo[1] + 1, lo[2] + 1}}, ID: uint64(i)}
	}
	return out
}

// edgeItems mixes the coordinates a packing order must still place
// deterministically: sides at -0 and +0, half-infinite sides (infinite
// centres), sides infinite both ways (a NaN centre) and exact duplicates,
// among ordinary squares.
func edgeItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	out := make([]Item, n)
	for i := range out {
		x, y := float64(rng.Intn(20)), float64(rng.Intn(20))
		r := R2(x, y, x+1, y+1)
		switch rng.Intn(8) {
		case 0:
			r = R2(negZero, y, 0, y+1)
		case 1:
			r = R2(0, negZero, x, 0)
		case 2:
			r = R2(math.Inf(-1), y, x, y+1)
		case 3:
			r = R2(x, y, x+1, math.Inf(1))
		case 4:
			r = R2(math.Inf(-1), y, math.Inf(1), y+1)
		case 5:
			if i > 0 {
				r = out[rng.Intn(i)].Rect.Clone()
			}
		}
		out[i] = Item{Rect: r, ID: uint64(i)}
	}
	return out
}

// TestCompactIntoGoldenDigests pins the file CompactInto writes from a
// churned tree, at one worker and at four: the collecting read hands the
// loader the entries in Scan's leaf order, as the per-entry clone loop it
// replaced did, so the constant is the one that loop's file had.
func TestCompactIntoGoldenDigests(t *testing.T) {
	const want = "621dc4e7414ce1f7"
	for _, workers := range []int{1, 4} {
		src := churnedTree(t, 20_000, 72)
		path := filepath.Join(t.TempDir(), "compact.str")
		dst, err := Create(path, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.CompactInto(dst, PackSTR); err != nil {
			t.Fatal(err)
		}
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("workers %d: compacted file (%d bytes) has FNV-64a %s, want %s", workers, len(data), got, want)
		}
	}
}
