package strtree_test

import (
	"bytes"
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
// concurrent workers.
func TestParallelExternalBuildByteIdentical(t *testing.T) {
	entries := datagen.UniformSquares(20000, 5.0, 4)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: strtree.Rect(e.Rect), ID: e.Ref}
	}
	build := func(workers int) []byte {
		path := filepath.Join(t.TempDir(), "ext.str")
		tree, err := strtree.Create(path, strtree.Options{Capacity: 16, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		src := func() (strtree.Item, bool) {
			if i >= len(items) {
				return strtree.Item{}, false
			}
			it := items[i]
			i++
			return it, true
		}
		if err := tree.BulkLoadExternal(src, strtree.ExternalOptions{RunSize: 2048, TmpDir: t.TempDir()}); err != nil {
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
	seq := build(1)
	par := build(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("external build bytes differ between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(seq), len(par))
	}
}
