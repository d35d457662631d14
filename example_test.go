package strtree_test

import (
	"fmt"
	"log"

	"strtree"
)

// ExampleTree_BulkLoad builds a packed tree and runs an intersection
// query — the library's primary workflow.
func ExampleTree_BulkLoad() {
	tree, err := strtree.New(strtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	items := []strtree.Item{
		{Rect: strtree.R2(0.0, 0.0, 0.1, 0.1), ID: 1},
		{Rect: strtree.R2(0.2, 0.2, 0.4, 0.4), ID: 2},
		{Rect: strtree.R2(0.8, 0.8, 0.9, 0.9), ID: 3},
	}
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		log.Fatal(err)
	}
	if err := tree.Search(strtree.R2(0.05, 0.05, 0.3, 0.3), func(it strtree.Item) bool {
		fmt.Println("hit:", it.ID)
		return true
	}); err != nil {
		log.Fatal(err)
	}
	// Output:
	// hit: 1
	// hit: 2
}

// ExampleTree_NearestK finds the two nearest rectangles to a point.
func ExampleTree_NearestK() {
	tree, err := strtree.New(strtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range []strtree.Rect{
		strtree.R2(0.0, 0.0, 0.1, 0.1),
		strtree.R2(0.5, 0.5, 0.6, 0.6),
		strtree.R2(0.9, 0.9, 1.0, 1.0),
	} {
		if err := tree.Insert(r, uint64(i+1)); err != nil {
			log.Fatal(err)
		}
	}
	items, dists, err := tree.NearestK(strtree.Pt2(0.55, 0.55), 2)
	if err != nil {
		log.Fatal(err)
	}
	for i, it := range items {
		fmt.Printf("id=%d dist=%.2f\n", it.ID, dists[i])
	}
	// Output:
	// id=2 dist=0.00
	// id=3 dist=0.49
}

// ExampleJoin intersects two layers, the classical spatial-join workload.
func ExampleJoin() {
	build := func(rects []strtree.Rect) *strtree.Tree {
		tree, err := strtree.New(strtree.Options{})
		if err != nil {
			log.Fatal(err)
		}
		items := make([]strtree.Item, len(rects))
		for i, r := range rects {
			items[i] = strtree.Item{Rect: r, ID: uint64(i + 1)}
		}
		if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
			log.Fatal(err)
		}
		return tree
	}
	parcels := build([]strtree.Rect{
		strtree.R2(0.0, 0.0, 0.5, 0.5),
		strtree.R2(0.6, 0.6, 0.9, 0.9),
	})
	floods := build([]strtree.Rect{
		strtree.R2(0.4, 0.4, 0.7, 0.7),
	})
	if err := strtree.Join(parcels, floods, func(p, f strtree.Item) bool {
		fmt.Printf("parcel %d intersects flood zone %d\n", p.ID, f.ID)
		return true
	}); err != nil {
		log.Fatal(err)
	}
	// Output:
	// parcel 1 intersects flood zone 1
	// parcel 2 intersects flood zone 1
}

// ExampleTree_Stats shows the paper's disk-access metric for one query.
func ExampleTree_Stats() {
	tree, err := strtree.New(strtree.Options{Capacity: 4, BufferPages: 8})
	if err != nil {
		log.Fatal(err)
	}
	var items []strtree.Item
	for i := 0; i < 64; i++ {
		x := float64(i%8) / 8
		y := float64(i/8) / 8
		items = append(items, strtree.Item{Rect: strtree.R2(x, y, x+0.05, y+0.05), ID: uint64(i)})
	}
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		log.Fatal(err)
	}
	if err := tree.DropCaches(); err != nil {
		log.Fatal(err)
	}
	tree.ResetStats()
	if _, err := tree.Count(strtree.R2(0.01, 0.01, 0.02, 0.02)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("disk accesses:", tree.Stats().DiskReads)
	// Output:
	// disk accesses: 3
}
