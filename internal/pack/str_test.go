package pack

import (
	"math/rand"
	"sort"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// refSTR is the STR order as the paper states it and as this package
// computed it before it sorted a permutation: physically stable-sort the
// entries on the axis, cut them into slabs, and do the same to every slab
// on the next axis.
func refSTR(entries []node.Entry, n, axis, dims int) {
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Rect.CenterAxis(axis) < entries[j].Rect.CenterAxis(axis)
	})
	rem := dims - axis
	if rem <= 1 {
		return
	}
	pages := (len(entries) + n - 1) / n
	slab := max(n*ceilPow(pages, float64(rem-1)/float64(rem)), n)
	for start := 0; start < len(entries); start += slab {
		refSTR(entries[start:min(start+slab, len(entries))], n, axis+1, dims)
	}
}

// pointEntries draws n point rectangles in dims dimensions; grid > 0 snaps
// every coordinate to a multiple of 1/grid, so centers tie heavily on every
// axis and only a stable sort at each step reproduces the reference.
func pointEntries(n, dims, grid int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]node.Entry, n)
	for i := range out {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64()
			if grid > 0 {
				p[d] = float64(rng.Intn(grid)) / float64(grid)
			}
		}
		out[i] = node.Entry{Rect: geom.PointRect(p), Ref: uint64(i)}
	}
	return out
}

// TestSTROrderMatchesTwoSortReference holds the one-permutation STR to the
// sort-then-sort-each-slab reference, entry for entry: dims 1-4, distinct
// and heavily tied centers, sizes on both sides of node, slab and
// parallel-sort boundaries (capacity 10: 1000 entries are exactly ten 2-D
// slabs of ten nodes), sequential and parallel.
func TestSTROrderMatchesTwoSortReference(t *testing.T) {
	const n = 10
	sizes := []int{2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 2744, 4097, 20011}
	for dims := 1; dims <= 4; dims++ {
		for _, grid := range []int{0, 20} {
			for _, size := range sizes {
				base := pointEntries(size, dims, grid, int64(size*10+dims))
				want := append([]node.Entry(nil), base...)
				refSTR(want, n, 0, dims)
				for _, workers := range []int{1, 4} {
					got := append([]node.Entry(nil), base...)
					STR{Workers: workers}.Order(got, n, 0)
					for i := range got {
						if got[i].Ref != want[i].Ref {
							t.Fatalf("dims=%d grid=%d size=%d workers=%d: position %d holds ref %d, reference has %d",
								dims, grid, size, workers, i, got[i].Ref, want[i].Ref)
						}
					}
				}
			}
		}
	}
}

// TestSTROrderAllocBound keeps STR's scratch per call, not per slab: the
// pairs, the permutation header, the coordinate slab and the refs the one
// move gathers into, and three closures, however many slabs the level has.
func TestSTROrderAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const bound = 7
	for _, size := range []int{25000, 100000} { // 16 and 32 slabs of capacity-100 nodes
		base := uniformSquares(size, 3)
		work := make([]node.Entry, size)
		allocs := testing.AllocsPerRun(3, func() {
			copy(work, base)
			STR{Workers: 1}.Order(work, 100, 0)
		})
		t.Logf("%d entries: %v allocations per Order", size, allocs)
		if allocs > bound {
			t.Fatalf("%d entries: STR.Order allocates %v times, want <= %d whatever the slab count", size, allocs, bound)
		}
	}
}
