package strtree

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"strtree/internal/storage"
)

func itemSource(items []Item) func() (Item, bool) {
	i := 0
	return func() (Item, bool) {
		if i >= len(items) {
			return Item{}, false
		}
		it := items[i]
		i++
		return it, true
	}
}

// gridItems places equal squares on the nodes of a cells x cells grid, so
// many items share a centre coordinate exactly and the sorts' tie-breaks
// decide the packing order.
func gridItems(n, cells int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Item, n)
	for i := range out {
		x, y := float64(rng.Intn(cells+1))/float64(cells), float64(rng.Intn(cells+1))/float64(cells)
		out[i] = Item{Rect: R2(x, y, x+0.001, y+0.001), ID: uint64(i)}
	}
	return out
}

// indexFile builds an index file with load and returns its bytes.
func indexFile(t *testing.T, opts Options, load func(*Tree) error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.str")
	tree, err := Create(path, opts)
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

// TestBulkLoadExternalMatchesInMemory is the external builder's
// differential: the index file it writes is byte for byte the file
// BulkLoad(PackSTR) writes from the same items — on tied centre
// coordinates too, since every sort on both paths is stable — whether
// nothing spills, only the first-axis sort spills, or the sorts of single
// slabs spill as well, at any worker count and at k = 3, where the slabs
// are cut again on the third axis. On tie-free input the file is also the
// one the two-pass builder this pipeline replaced wrote: parentSHA256 was
// recorded at that commit.
func TestBulkLoadExternalMatchesInMemory(t *testing.T) {
	// 2-D: one x-sort of ceil(8000/RunSize) runs; nine y-sorts of up to 900
	// items, spilled only at RunSize 64.
	flat := map[int]ExternalSortStats{
		1 << 20: {Sorts: 10, EntriesSorted: 16000},
		999:     {Sorts: 10, EntriesSorted: 16000, RunsSpilled: 9, Merges: 1},
		64:      {Sorts: 10, EntriesSorted: 16000, RunsSpilled: 125 + 8*15 + 13, Merges: 10},
	}
	// 3-D at capacity 50, P = 160: six slabs on the second axis (five of
	// 50*ceil(160^(2/3)) = 1500, one of 500), cut on the third into five
	// sub-slabs of 300 and three of up to 200 — 1 + 6 + 28 sorts.
	cubes := map[int]ExternalSortStats{
		1 << 20: {Sorts: 35, EntriesSorted: 24000},
		999:     {Sorts: 35, EntriesSorted: 24000, RunsSpilled: 9 + 5*2, Merges: 1 + 5},
		64:      {Sorts: 35, EntriesSorted: 24000, RunsSpilled: 125 + 5*24 + 8 + 25*5 + 4 + 4 + 2, Merges: 35},
	}
	inputs := []struct {
		name         string
		opts         Options
		items        []Item
		parentSHA256 string
		stats        map[int]ExternalSortStats
	}{
		{"uniform seed 61", Options{Capacity: 100}, randItems(8000, 61), "5dd56d44d9356eff2defda4b743079d15ffd3e8c38e69f55051a99621387cc2a", flat},
		{"uniform seed 62", Options{Capacity: 100}, randItems(8000, 62), "af5435a0f12482fb694fdd5e35645a5a1f9c6aaa8f19b897a640caef95a5c760", flat},
		{"uniform seed 63", Options{Capacity: 100}, randItems(8000, 63), "82b3f844ab02f8620a223916d73a76335a01320222de1ccd6e39fe21c1bfe058", flat},
		{"grid 1/200", Options{Capacity: 100}, gridItems(8000, 200, 64), "", flat},
		{"grid 1/20", Options{Capacity: 100}, gridItems(8000, 20, 65), "", flat},
		{"tied cubes 3-D", Options{Dims: 3, Capacity: 50}, tiedCubeItems(8000, 67), "", cubes},
	}
	for _, in := range inputs {
		opts := in.opts
		opts.Workers = 1
		want := indexFile(t, opts, func(tree *Tree) error {
			return tree.BulkLoad(append([]Item(nil), in.items...), PackSTR)
		})
		if sum := fmt.Sprintf("%x", sha256.Sum256(want)); in.parentSHA256 != "" && sum != in.parentSHA256 {
			t.Errorf("%s: in-memory file has SHA-256 %s, the parent commit wrote %s", in.name, sum, in.parentSHA256)
		}
		for _, runSize := range []int{1 << 20, 999, 64} {
			for _, workers := range []int{1, 4} {
				var stats ExternalSortStats
				opts.Workers = workers
				got := indexFile(t, opts, func(tree *Tree) error {
					err := tree.BulkLoadExternal(itemSource(in.items), ExternalOptions{RunSize: runSize, TmpDir: t.TempDir()})
					stats = tree.LastExternalSortStats()
					return err
				})
				if !bytes.Equal(got, want) {
					t.Errorf("%s, RunSize %d, Workers %d: external index file differs from the in-memory one", in.name, runSize, workers)
				}
				if stats != in.stats[runSize] {
					t.Errorf("%s, RunSize %d, Workers %d: sort stats %+v, want %+v", in.name, runSize, workers, stats, in.stats[runSize])
				}
			}
		}
	}
}

// TestBulkLoadExternalFaultLeavesNothingBehind fails the load partway
// through a slab, while the x-merge and a y-sort hold run files open and
// their readers are running: the error comes back in-band, the temp
// directory is empty and no goroutine outlives the call.
func TestBulkLoadExternalFaultLeavesNothingBehind(t *testing.T) {
	boom := errors.New("injected allocation failure")
	bad := randItems(8000, 66)
	bad[4000].Rect.Min[0], bad[4000].Rect.Max[0] = 1, 0 // sorts normally, fails the loader's check
	for name, tc := range map[string]struct {
		items  []Item
		allocs int // page allocations that succeed before boom; 0 = all
	}{
		"invalid rectangle mid-stream": {items: bad},
		"leaf page allocation fails":   {items: randItems(8000, 66), allocs: 30},
	} {
		t.Run(name, func(t *testing.T) {
			fp := storage.NewFaultyPager(storage.NewMemPager(4096))
			tree, err := NewOnPager(fp, Options{Capacity: 100, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			left := tc.allocs
			if left > 0 {
				fp.FailAllocs(func() error {
					if left--; left < 0 {
						return boom
					}
					return nil
				})
			}
			dir, before := t.TempDir(), runtime.NumGoroutine()
			err = tree.BulkLoadExternal(itemSource(tc.items), ExternalOptions{RunSize: 64, TmpDir: dir})
			if err == nil || tc.allocs > 0 && !errors.Is(err, boom) {
				t.Fatalf("faulted load returned %v", err)
			}
			if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
				t.Errorf("%d run files left behind (ReadDir error %v)", len(names), err)
			}
			// The load joins every goroutine it starts, so at most their
			// final returns are still in flight; on a loaded machine those
			// can take a while to be scheduled. A leaked one never returns.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines live 5 s after the load, %d before it", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

func TestBulkLoadExternalGuards(t *testing.T) {
	// Any dimensionality loads; an item of another one is refused in-band.
	tree, err := New(Options{Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	cubes := tiedCubeItems(500, 68)
	if err := tree.BulkLoadExternal(itemSource(cubes), ExternalOptions{RunSize: 64, TmpDir: t.TempDir()}); err != nil {
		t.Fatalf("3-D external load: %v", err)
	}
	if tree.Len() != len(cubes) {
		t.Fatalf("3-D external load holds %d items, want %d", tree.Len(), len(cubes))
	}
	t3, err := New(Options{Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(tiedCubeItems(10, 69), Item{Rect: R2(0, 0, 1, 1), ID: 10})
	if err := t3.BulkLoadExternal(itemSource(mixed), ExternalOptions{TmpDir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), "item 10") {
		t.Fatalf("2-D item into a 3-D tree: %v", err)
	}
	t2, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Non-empty tree rejected through the stream path too.
	if err := t2.Insert(R2(0, 0, 0.1, 0.1), 1); err != nil {
		t.Fatal(err)
	}
	if err := t2.BulkLoadExternal(itemSource(randItems(10, 62)), ExternalOptions{RunSize: 4, TmpDir: t.TempDir()}); err == nil {
		t.Fatal("non-empty tree accepted")
	}
}

func TestBulkLoadExternalEmpty(t *testing.T) {
	tree, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoadExternal(itemSource(nil), ExternalOptions{}); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Fatalf("len = %d", tree.Len())
	}
}
