// Quickstart: build an STR-packed R-tree over a handful of rectangles,
// run point and region queries, and inspect the tree — a minimal tour of
// the public API using only inline data.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"strtree"
)

func main() {
	// An in-memory tree with small nodes so even 64 rectangles produce a
	// multi-level structure (like the paper's Figure 1: 64 rectangles, 16
	// leaves, 4 internal nodes, 1 root).
	tree, err := strtree.New(strtree.Options{Capacity: 4})
	if err != nil {
		log.Fatal(err)
	}

	// 64 small rectangles on a jittered 8x8 grid.
	rng := rand.New(rand.NewSource(1))
	items := make([]strtree.Item, 0, 64)
	for i := 0; i < 64; i++ {
		x := float64(i%8)/8 + rng.Float64()*0.05
		y := float64(i/8)/8 + rng.Float64()*0.05
		items = append(items, strtree.Item{
			Rect: strtree.R2(x, y, x+0.04, y+0.04),
			ID:   uint64(i),
		})
	}

	// Bulk-load with Sort-Tile-Recursive packing: the preprocessing path
	// the paper recommends when the data is known up front.
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packed %d rectangles into a height-%d tree (fan-out %d)\n",
		tree.Len(), tree.Height(), tree.Capacity())

	// Region query: everything intersecting the center of the space.
	q := strtree.R2(0.4, 0.4, 0.6, 0.6)
	fmt.Printf("\nrectangles intersecting %v:\n", q)
	if err := tree.Search(q, func(it strtree.Item) bool {
		fmt.Printf("  id=%-3d %v\n", it.ID, it.Rect)
		return true
	}); err != nil {
		log.Fatal(err)
	}

	// Point query.
	p := strtree.Pt2(0.52, 0.52)
	n := 0
	if err := tree.SearchPoint(p, func(strtree.Item) bool { n++; return true }); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d rectangle(s) contain the point %v\n", n, p)

	// Dynamic updates work on packed trees too.
	if err := tree.Insert(strtree.R2(0.45, 0.45, 0.55, 0.55), 1000); err != nil {
		log.Fatal(err)
	}
	if ok, err := tree.Delete(items[0].Rect, items[0].ID); err != nil || !ok {
		log.Fatalf("delete failed: ok=%v err=%v", ok, err)
	}
	fmt.Printf("\nafter one insert and one delete: %d items, tree still valid: %v\n",
		tree.Len(), tree.CheckInvariants() == nil)

	// The paper's metrics: disk accesses and MBR geometry.
	tree.ResetStats()
	if err := tree.DropCaches(); err != nil {
		log.Fatal(err)
	}
	if _, err := tree.Count(q); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthat region query cost %d disk accesses (cold buffer)\n", tree.Stats().DiskReads)
	m, err := tree.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree geometry: %d nodes, leaf area %.3f, leaf perimeter %.3f\n",
		m.Nodes, m.LeafArea, m.LeafPerimeter)
}
