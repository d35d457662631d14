// Command strplot renders the STR paper's Figures 2-6 as SVG files:
//
//	Figure 2: leaf bounding rectangles of the Long Beach data under NX
//	Figure 3: the same under HS
//	Figure 4: the same under STR (note the vertical slices)
//	Figure 5: the full 5,088-node CFD data set
//	Figure 6: the CFD data around the centroid (the wing cut-outs)
//
// Usage:
//
//	strplot [-fig 2|3|4|5|6|all] [-o .] [-seed 1] [-n 0]
//
// The Long Beach and CFD data are the repository's simulated stand-ins
// (see DESIGN.md §1).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"strtree/internal/buffer"
	"strtree/internal/datagen"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/rtree"
	"strtree/internal/storage"
	"strtree/internal/svg"
)

func main() {
	var (
		fig  = flag.String("fig", "all", "figure to render: 2,3,4,5,6 or all")
		out  = flag.String("o", ".", "output directory")
		seed = flag.Int64("seed", 1, "data generator seed")
		n    = flag.Int("n", 0, "override data size (0 = paper sizes)")
	)
	flag.Parse()

	figs := map[string]func() error{
		"2": func() error { return plotLeaves(*out, "figure2_nx.svg", "NX", pack.NX{}, *seed, *n) },
		"3": func() error { return plotLeaves(*out, "figure3_hs.svg", "HS", pack.HS{}, *seed, *n) },
		"4": func() error { return plotLeaves(*out, "figure4_str.svg", "STR", pack.STR{}, *seed, *n) },
		"5": func() error { return plotCFDFull(*out, *seed, *n) },
		"6": func() error { return plotCFDCenter(*out, *seed, *n) },
	}

	var ids []string
	if *fig == "all" {
		ids = []string{"2", "3", "4", "5", "6"}
	} else {
		ids = strings.Split(*fig, ",")
	}
	for _, id := range ids {
		f, ok := figs[strings.TrimSpace(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "strplot: unknown figure %q\n", id)
			os.Exit(2)
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "strplot: figure %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// plotLeaves draws the leaf-level MBRs of the Long Beach data packed with
// one algorithm (Figures 2-4; node capacity 100 as in the paper).
func plotLeaves(dir, name, label string, o rtree.Orderer, seed int64, n int) error {
	if n == 0 {
		n = datagen.TigerSize
	}
	entries := datagen.Tiger(n, seed)
	pool := buffer.NewPool(storage.NewMemPager(4096), 1024)
	tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: 100})
	if err != nil {
		return err
	}
	if err := tr.BulkLoad(entries, o); err != nil {
		return err
	}
	c := svg.New(640, 640)
	m := geom.Rect{Min: make(geom.Point, 2), Max: make(geom.Point, 2)}
	err = tr.Walk(func(_ storage.PageID, v node.View) bool {
		if !v.IsLeaf() {
			return true
		}
		v.MBRInto(&m)
		c.Rect(m.Min[0], m.Min[1], m.Max[0], m.Max[1], "black", 0.7, "none")
		return true
	})
	if err != nil {
		return err
	}
	c.Text(0.02, 0.97, 14, fmt.Sprintf("Leaf MBRs, Long Beach (simulated), %s", label))
	return write(dir, name, c)
}

// plotCFDFull draws the small CFD data set (Figure 5).
func plotCFDFull(dir string, seed int64, n int) error {
	if n == 0 {
		n = datagen.CFDSmallSize
	}
	entries := datagen.CFD(n, seed)
	c := svg.New(640, 640)
	for _, e := range entries {
		c.Dot(e.Rect.Min[0], e.Rect.Min[1], 1.0, "black")
	}
	c.Text(0.02, 0.97, 14, fmt.Sprintf("CFD data (simulated), %d nodes", n))
	return write(dir, "figure5_cfd_full.svg", c)
}

// plotCFDCenter zooms on the area around the data centroid, exposing the
// point-free wing cut-outs (Figure 6).
func plotCFDCenter(dir string, seed int64, n int) error {
	if n == 0 {
		n = datagen.CFDSmallSize
	}
	entries := datagen.CFD(n, seed)
	box := geom.R2(0.48, 0.48, 0.60, 0.53)
	c := svg.New(960, 400)
	for _, e := range entries {
		x, y := e.Rect.Min[0], e.Rect.Min[1]
		if !box.ContainsPoint(geom.Pt2(x, y)) {
			continue
		}
		// Rescale the window to the canvas.
		u := (x - box.Min[0]) / box.Side(0)
		v := (y - box.Min[1]) / box.Side(1)
		c.Dot(u, v, 1.4, "black")
	}
	c.Text(0.02, 0.95, 14, "CFD data around the wing ("+rectLabel(box)+")")
	return write(dir, "figure6_cfd_center.svg", c)
}

func rectLabel(r geom.Rect) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }
	return "[" + f(r.Min[0]) + "," + f(r.Min[1]) + "]-[" + f(r.Max[0]) + "," + f(r.Max[1]) + "]"
}

func write(dir, name string, c *svg.Canvas) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
