package strtree_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"strtree"
	"strtree/internal/datagen"
)

// buildFile bulk-loads items into a fresh index file with the given
// packing and worker count and returns the file's bytes.
func buildFile(t *testing.T, items []strtree.Item, p strtree.Packing, workers int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w"+strconv.Itoa(workers)+".str")
	tree, err := strtree.Create(path, strtree.Options{Capacity: 16, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	cp := append([]strtree.Item(nil), items...)
	if err := tree.BulkLoad(cp, p); err != nil {
		t.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParallelBuildByteIdentical asserts the pipeline's central guarantee
// at the public API: for every packing algorithm, the index file a
// parallel build writes is byte-for-byte the file a sequential build
// writes.
func TestParallelBuildByteIdentical(t *testing.T) {
	entries := datagen.UniformSquares(5000, 5.0, 3)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: strtree.Rect(e.Rect), ID: e.Ref}
	}
	packings := []strtree.Packing{
		strtree.PackSTR, strtree.PackHilbert, strtree.PackNearestX, strtree.PackTGS,
	}
	for _, p := range packings {
		t.Run(p.String(), func(t *testing.T) {
			seq := buildFile(t, items, p, 1)
			par := buildFile(t, items, p, 8)
			if !bytes.Equal(seq, par) {
				t.Fatalf("%s: index bytes differ between workers=1 (%d bytes) and workers=8 (%d bytes)",
					p, len(seq), len(par))
			}
		})
	}
}

// TestParallelExternalBuildByteIdentical asserts the same guarantee for
// the bounded-memory external build, whose sort phases spill runs from
// concurrent workers and whose last axis is merged and sorted slabs ahead
// on other goroutines. At 20 000 items and capacity 16 a slab is 576
// records at k = 2; at k = 3 a slab is 1 872 and a sub-slab 176. So RunSize
// 2048 spills the first axis alone, every later slab merged into one run
// and sorted in memory; RunSize 256 spills the slabs too (all but k = 3's
// sub-slabs); a RunSize above the item count spills nothing. At each,
// Workers 1, 2 and 8 write the file a sequential in-memory BulkLoad writes.
func TestParallelExternalBuildByteIdentical(t *testing.T) {
	entries := datagen.UniformSquares(20000, 5.0, 4)
	squares := make([]strtree.Item, len(entries))
	for i, e := range entries {
		squares[i] = strtree.Item{Rect: strtree.Rect(e.Rect), ID: e.Ref}
	}
	rng := rand.New(rand.NewSource(5))
	cubes := make([]strtree.Item, 20000)
	for i := range cubes {
		lo := strtree.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		hi := strtree.Point{lo[0] + rng.Float64()/50, lo[1] + rng.Float64()/50, lo[2] + rng.Float64()/50}
		cubes[i] = strtree.Item{Rect: strtree.Rect{Min: lo, Max: hi}, ID: uint64(i)}
	}
	build := func(dims int, items []strtree.Item, workers int, load func(*strtree.Tree) error) []byte {
		path := filepath.Join(t.TempDir(), "ext.str")
		tree, err := strtree.Create(path, strtree.Options{Dims: dims, Capacity: 16, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := load(tree); err != nil {
			t.Fatal(err)
		}
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for dims, items := range map[int][]strtree.Item{2: squares, 3: cubes} {
		want := build(dims, items, 1, func(tree *strtree.Tree) error {
			return tree.BulkLoad(append([]strtree.Item(nil), items...), strtree.PackSTR)
		})
		for _, runSize := range []int{256, 2048, 1 << 20} {
			for _, workers := range []int{1, 2, 8} {
				got := build(dims, items, workers, func(tree *strtree.Tree) error {
					i := 0
					src := func() (strtree.Item, bool) {
						if i >= len(items) {
							return strtree.Item{}, false
						}
						i++
						return items[i-1], true
					}
					return tree.BulkLoadExternal(src, strtree.ExternalOptions{RunSize: runSize, TmpDir: t.TempDir()})
				})
				if !bytes.Equal(got, want) {
					t.Errorf("%d-D, RunSize %d, workers=%d: external build bytes (%d) differ from the sequential in-memory build's (%d)",
						dims, runSize, workers, len(got), len(want))
				}
			}
		}
	}
}
