// VLSI example: index a highly skewed chip layout (the repository's
// simulated stand-in for the paper's Bell Labs CIF data) and run a
// design-rule-style overlap check in a chip region. Also contrasts packed
// loading against one-rectangle-at-a-time dynamic insertion — the paper's
// motivation (a)-(c): load time, space utilization, query quality.
package main

import (
	"fmt"
	"log"
	"time"

	"strtree"
	"strtree/internal/datagen"
)

func main() {
	const rects = 100000 // a slice of the paper's 453,994-rectangle chip
	fmt.Printf("generating %d layout rectangles (simulated CIF chip)...\n", rects)
	entries := datagen.VLSI(rects, 1)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: e.Rect, ID: e.Ref}
	}

	// Packed build.
	packed, err := strtree.New(strtree.Options{Capacity: 100})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := packed.BulkLoad(items, strtree.PackSTR); err != nil {
		log.Fatal(err)
	}
	packTime := time.Since(start)

	// Dynamic build of the same data: Guttman insertion.
	dynamic, err := strtree.New(strtree.Options{Capacity: 100, BufferPages: 4096})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	for _, it := range items {
		if err := dynamic.Insert(it.Rect, it.ID); err != nil {
			log.Fatal(err)
		}
	}
	dynTime := time.Since(start)

	pm, err := packed.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	dm, err := dynamic.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	packedUtil, err := packed.Utilization()
	if err != nil {
		log.Fatal(err)
	}
	dynamicUtil, err := dynamic.Utilization()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %10s %8s %12s %12s %12s\n",
		"build", "time", "nodes", "leaf util", "leaf area", "leaf perim")
	fmt.Printf("%-10s %10v %8d %11.1f%% %12.3f %12.1f\n",
		"STR pack", packTime.Round(time.Millisecond), pm.Nodes, 100*packedUtil, pm.LeafArea, pm.LeafPerimeter)
	fmt.Printf("%-10s %10v %8d %11.1f%% %12.3f %12.1f\n",
		"dynamic", dynTime.Round(time.Millisecond), dm.Nodes, 100*dynamicUtil, dm.LeafArea, dm.LeafPerimeter)

	// Overlap check: report geometry pairs that intersect within a window
	// of the die — a simplified design-rule screen.
	window := strtree.R2(0.45, 0.45, 0.55, 0.55)
	var inWindow []strtree.Item
	if err := packed.Search(window, func(it strtree.Item) bool {
		it.Rect = it.Rect.Clone()
		inWindow = append(inWindow, it)
		return true
	}); err != nil {
		log.Fatal(err)
	}
	packed.ResetStats()
	overlaps := 0
	for _, it := range inWindow {
		err := packed.Search(it.Rect, func(other strtree.Item) bool {
			if other.ID > it.ID { // count each pair once
				overlaps++
			}
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\noverlap screen in %v: %d rectangles, %d intersecting pairs, %d page requests\n",
		window, len(inWindow), overlaps, packed.Stats().LogicalReads)
}
