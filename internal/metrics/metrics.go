// Package metrics computes the paper's secondary comparison metric: the
// sum of the area and perimeter of the MBRs of the R-tree nodes, reported
// both for the whole tree (all nodes at all levels) and for the leaf level
// only. The paper argues the leaf-level numbers matter most "since the
// non-leaf level nodes will likely be buffered" (Section 3).
package metrics

import (
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// TreeMetrics are the per-tree totals of Tables 4, 6, 8 and 10.
type TreeMetrics struct {
	// LeafArea and LeafMargin sum over the MBRs of leaf nodes.
	LeafArea   float64
	LeafMargin float64
	// TotalArea and TotalMargin sum over the MBRs of all nodes, leaves
	// included.
	TotalArea   float64
	TotalMargin float64
	// Nodes and LeafNodes count pages.
	Nodes     int
	LeafNodes int
}

// ExpectedAccesses returns the analytical expected number of node
// accesses for a region query with the given per-axis extents, under the
// Kamel-Faloutsos model the paper's Section 3 leans on: a query whose
// lower-left corner is uniform in the unit space intersects a node whose
// MBR has sides s_d with probability prod_d min(1, s_d + q_d), so the
// expectation is the sum of that product over all nodes. Point queries
// use zero extents (the probability reduces to the MBR's area).
//
// The model assumes no buffering — every intersected node is a disk
// access. Comparing it with measured buffer misses quantifies the paper's
// warning that area/perimeter metrics "can be misleading if buffering is
// not considered" (see the extmodel experiment).
func ExpectedAccesses(t *rtree.Tree, extents []float64) (float64, error) {
	expected := 0.0
	mbr := geom.Rect{Min: make(geom.Point, t.Dims()), Max: make(geom.Point, t.Dims())}
	err := t.Walk(func(_ storage.PageID, v node.View) bool {
		if v.Count() == 0 {
			return true
		}
		v.MBRInto(&mbr)
		p := 1.0
		for d := 0; d < mbr.Dim(); d++ {
			q := 0.0
			if d < len(extents) {
				q = extents[d]
			}
			side := mbr.Side(d) + q
			if side > 1 {
				side = 1
			}
			p *= side
		}
		expected += p
		return true
	})
	return expected, err
}

// Measure walks the tree and accumulates its metrics. The walk touches
// every page; callers that are also counting query accesses should reset
// the buffer-pool statistics afterwards.
func Measure(t *rtree.Tree) (TreeMetrics, error) {
	var m TreeMetrics
	mbr := geom.Rect{Min: make(geom.Point, t.Dims()), Max: make(geom.Point, t.Dims())}
	err := t.Walk(func(_ storage.PageID, v node.View) bool {
		if v.Count() == 0 {
			return true
		}
		v.MBRInto(&mbr)
		a, p := mbr.Area(), mbr.Margin()
		m.TotalArea += a
		m.TotalMargin += p
		m.Nodes++
		if v.IsLeaf() {
			m.LeafArea += a
			m.LeafMargin += p
			m.LeafNodes++
		}
		return true
	})
	return m, err
}
