// Spatial-join example: overlay two index files — land parcels and flood
// zones — to find every parcel touched by a flood zone, using the
// synchronized-traversal join. Each data set is one file: both are built,
// closed and reopened before the join. Then demonstrates STR-based
// compaction: after a burst of dynamic edits the parcels layer is
// repacked, recovering bulk-loaded utilization (the maintenance pattern
// behind the paper's proposed dynamic STR variants).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"strtree"
)

// build writes items, STR-packed, to a new index file at path and closes it.
func build(path string, items []strtree.Item) {
	tree, err := strtree.Create(path, strtree.Options{Capacity: 100})
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		log.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		log.Fatal(err)
	}
}

func main() {
	rng := rand.New(rand.NewSource(1))
	dir, err := os.MkdirTemp("", "spatialjoin")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	parcelsPath := filepath.Join(dir, "parcels.str")
	floodsPath := filepath.Join(dir, "floods.str")

	// File 1: 40,000 parcels, small rectangles tiling the region.
	var parcelItems []strtree.Item
	for i := 0; i < 40000; i++ {
		x, y := rng.Float64()*0.995, rng.Float64()*0.995
		parcelItems = append(parcelItems, strtree.Item{
			Rect: strtree.R2(x, y, x+0.004, y+0.004),
			ID:   uint64(i),
		})
	}
	build(parcelsPath, parcelItems)

	// File 2: 60 flood zones, larger irregular boxes along a "river"
	// running diagonally across the region.
	var floodItems []strtree.Item
	for i := 0; i < 60; i++ {
		t := float64(i) / 60
		cx := t
		cy := 0.3 + 0.4*t + rng.NormFloat64()*0.02
		w := 0.02 + rng.Float64()*0.03
		h := 0.01 + rng.Float64()*0.02
		r, err := strtree.NewRect(strtree.Pt2(cx-w, cy-h), strtree.Pt2(cx+w, cy+h))
		if err != nil {
			log.Fatal(err)
		}
		floodItems = append(floodItems, strtree.Item{Rect: r, ID: uint64(i)})
	}
	build(floodsPath, floodItems)

	// Reopen both files, each behind its own buffer.
	parcels, err := strtree.Open(parcelsPath, strtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer parcels.Close()
	floods, err := strtree.Open(floodsPath, strtree.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer floods.Close()
	fmt.Printf("index files: %s (%d items), %s (%d items)\n",
		filepath.Base(parcelsPath), parcels.Len(), filepath.Base(floodsPath), floods.Len())

	// The join: every (parcel, flood zone) intersection.
	parcels.ResetStats()
	floods.ResetStats()
	affected := map[uint64]bool{}
	pairs := 0
	if err := strtree.Join(parcels, floods, func(p, f strtree.Item) bool {
		affected[p.ID] = true
		pairs++
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("join: %d intersecting pairs, %d distinct parcels in flood zones\n",
		pairs, len(affected))
	fmt.Printf("join cost: %d + %d page requests over %d parcels x %d zones\n",
		parcels.Stats().LogicalReads, floods.Stats().LogicalReads, len(parcelItems), len(floodItems))

	// Simulate a year of edits: delete a tenth of the parcels, add new
	// subdivided ones dynamically.
	for i := 0; i < 4000; i++ {
		if _, err := parcels.Delete(parcelItems[i].Rect, parcelItems[i].ID); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 8000; i++ {
		x, y := rng.Float64()*0.997, rng.Float64()*0.997
		if err := parcels.Insert(strtree.R2(x, y, x+0.002, y+0.002), uint64(100000+i)); err != nil {
			log.Fatal(err)
		}
	}
	before, err := parcels.Metrics()
	if err != nil {
		log.Fatal(err)
	}

	// Compact: repack everything with STR into a fresh tree.
	fresh, err := strtree.New(strtree.Options{Capacity: 100})
	if err != nil {
		log.Fatal(err)
	}
	if err := parcels.CompactInto(fresh, strtree.PackSTR); err != nil {
		log.Fatal(err)
	}
	after, err := fresh.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	util := func(m strtree.Metrics, len, cap int) float64 {
		return 100 * float64(len) / float64(m.LeafNodes*cap)
	}
	fmt.Printf("\nafter edits:   %d items in %d leaves (%.1f%% full), leaf perimeter %.1f\n",
		parcels.Len(), before.LeafNodes, util(before, parcels.Len(), parcels.Capacity()), before.LeafPerimeter)
	fmt.Printf("after compact: %d items in %d leaves (%.1f%% full), leaf perimeter %.1f\n",
		fresh.Len(), after.LeafNodes, util(after, fresh.Len(), fresh.Capacity()), after.LeafPerimeter)
}
