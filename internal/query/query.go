// Package query generates the query workloads of the paper's methodology
// (Section 3): 2,000 point queries uniformly distributed in the unit
// square, and region queries whose lower-left corner is uniform in the
// unit square with the upper-right corner at (+e, +e) clamped to 1.0 —
// e = 0.1 for 1%-area queries and e = 0.3 for 9%-area queries. The CFD
// experiments use the same shapes restricted to a sub-box (Section 4.4).
package query

import (
	"math/rand"

	"strtree/internal/geom"
)

// Paper extents: a region query of extent e covers e*e of the unit square.
const (
	// Extent1Pct gives region queries covering 1% of the data space.
	Extent1Pct = 0.1
	// Extent9Pct gives region queries covering 9% of the data space.
	Extent9Pct = 0.3
)

// Points returns n point queries uniformly distributed in the unit square,
// as degenerate rectangles.
func Points(n int, seed int64) []geom.Rect {
	return PointsIn(n, geom.UnitSquare(), seed)
}

// PointsIn returns n point queries uniformly distributed in box.
func PointsIn(n int, box geom.Rect, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		p := geom.Pt2(
			box.Min[0]+rng.Float64()*box.Side(0),
			box.Min[1]+rng.Float64()*box.Side(1),
		)
		out[i] = geom.PointRect(p)
	}
	return out
}

// Regions returns n region queries of the given extent: the lower-left
// corner uniform in the unit square, the upper-right corner extent higher
// in both axes, clamped at 1.0 ("If the x- or y-coordinate is larger than
// 1.0 we set the coordinate to 1.0").
func Regions(n int, extent float64, seed int64) []geom.Rect {
	return RegionsIn(n, geom.UnitSquare(), extent, seed)
}

// RegionsIn returns n region queries restricted to box: the lower-left
// corner uniform in box, the upper-right corner extent away, truncated at
// box's upper bounds — the construction the paper uses for the CFD data
// ("truncating at 0.6 if needed").
func RegionsIn(n int, box geom.Rect, extent float64, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		x := box.Min[0] + rng.Float64()*box.Side(0)
		y := box.Min[1] + rng.Float64()*box.Side(1)
		hi := box.Clamp(geom.Pt2(x+extent, y+extent))
		r, err := geom.NewRect(geom.Pt2(x, y), hi)
		if err != nil {
			// Unreachable for a valid box; keep the workload total stable.
			r = geom.PointRect(geom.Pt2(x, y))
		}
		out[i] = r
	}
	return out
}
