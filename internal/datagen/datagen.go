// Package datagen produces the four data-set families of the STR paper's
// evaluation (Section 3), all normalized to the unit square:
//
//  1. Synthetic: uniformly distributed squares with a chosen density, and
//     point data as the density-0 special case — generated exactly per the
//     paper's recipe.
//  2. GIS: a stand-in for the TIGER Long Beach County line segments
//     (53,145 segments, mildly skewed).
//  3. VLSI: a stand-in for the Bell Labs CIF chip data (453,994
//     rectangles, highly skewed in location and size, largest roughly
//     40,000 times the smallest).
//  4. CFD: a stand-in for the Boeing 737 cross-section mesh points
//     (52,510 nodes, dense near the airfoil surfaces, sparse far field,
//     no points inside the bodies).
//
// The real TIGER/VLSI/CFD files are not distributable with this
// repository; each stand-in reproduces the structural properties the paper
// identifies as driving packing performance (see DESIGN.md §1 for
// the substitution argument). All generators are deterministic in their
// seed.
package datagen

import (
	"math"
	"math/rand"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// Paper data-set sizes.
const (
	// TigerSize is the number of line segments in the Long Beach data set.
	TigerSize = 53145
	// VLSISize is the number of rectangles in the Bell Labs CIF data set.
	VLSISize = 453994
	// CFDSize is the mesh size used in the paper's CFD experiments.
	CFDSize = 52510
	// CFDSmallSize is the small mesh plotted in the paper's Figures 5-6.
	CFDSmallSize = 5088
)

// UniformSquares generates r squares per the paper's synthetic recipe: the
// lower-left corner is uniform in the unit square; the square's area is
// uniform between 0 and twice the average area, where the average area is
// density/r; coordinates beyond 1.0 are clamped to 1.0 (so boundary squares
// become rectangles, as in the paper). Density 0 produces point data.
func UniformSquares(r int, density float64, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	avgArea := 0.0
	if r > 0 {
		avgArea = density / float64(r)
	}
	out := make([]node.Entry, r)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		side := math.Sqrt(rng.Float64() * 2 * avgArea)
		out[i] = node.Entry{
			Rect: geom.R2(x, y, math.Min(x+side, 1), math.Min(y+side, 1)),
			Ref:  uint64(i),
		}
	}
	return out
}

// UniformPoints generates r uniformly distributed points (density 0).
func UniformPoints(r int, seed int64) []node.Entry {
	return UniformSquares(r, 0, seed)
}

// Tiger generates r line-segment MBRs resembling a county street network:
// a mildly skewed mix of axis-aligned and diagonal street segments, denser
// around a downtown core and a few secondary centers. Use r = TigerSize
// for the paper's configuration.
func Tiger(r int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	// Secondary population centers (fractions of the unit square).
	centers := []struct{ x, y, sd, w float64 }{
		{0.35, 0.55, 0.10, 0.30}, // downtown
		{0.65, 0.30, 0.07, 0.15},
		{0.20, 0.20, 0.06, 0.10},
		{0.75, 0.75, 0.08, 0.10},
	}
	out := make([]node.Entry, r)
	for i := range out {
		var cx, cy float64
		u := rng.Float64()
		acc := 0.0
		clustered := false
		for _, c := range centers {
			acc += c.w
			if u < acc {
				cx = clamp01(c.x + rng.NormFloat64()*c.sd)
				cy = clamp01(c.y + rng.NormFloat64()*c.sd)
				clustered = true
				break
			}
		}
		if !clustered { // uniform background grid of streets
			cx, cy = rng.Float64(), rng.Float64()
		}
		// Street segments: mostly axis-aligned, some diagonal; length is
		// exponential with a short mean (city blocks).
		length := rng.ExpFloat64() * 0.004
		if length > 0.05 {
			length = 0.05
		}
		var dx, dy float64
		switch rng.Intn(4) {
		case 0: // horizontal
			dx, dy = length, 0
		case 1: // vertical
			dx, dy = 0, length
		default: // diagonal
			theta := rng.Float64() * 2 * math.Pi
			dx, dy = length*math.Cos(theta), length*math.Sin(theta)
		}
		x2, y2 := clamp01(cx+dx), clamp01(cy+dy)
		rect, _ := geom.NewRect(geom.Pt2(cx, cy), geom.Pt2(x2, y2))
		out[i] = node.Entry{Rect: rect, Ref: uint64(i)}
	}
	return Normalize(out)
}

// VLSI generates r rectangles resembling a chip layout: hierarchically
// clustered cells with log-uniform rectangle sizes spanning the 4.6
// decades the paper reports (largest about 40,000 times the smallest),
// leaving parts of the die covered by thousands of rectangles and other
// parts empty. Use r = VLSISize for the paper's configuration.
func VLSI(r int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	// Hierarchy: a handful of macro blocks, each with many standard cells.
	type cell struct{ x, y, sd, w float64 }
	var cells []cell
	totalW := 0.0
	nBlocks := 5 + rng.Intn(3)
	for b := 0; b < nBlocks; b++ {
		bx := 0.1 + 0.8*rng.Float64()
		by := 0.1 + 0.8*rng.Float64()
		bsd := 0.015 + 0.04*rng.Float64()
		// Zipf-like weights across blocks too: one or two macro blocks
		// hold most of the geometry, as on a real die.
		blockW := 1.0 / math.Pow(float64(b+1), 1.3)
		nCells := 10 + rng.Intn(30)
		for c := 0; c < nCells; c++ {
			// Zipf-like weights: a few cells dominate.
			w := blockW / math.Pow(float64(c+1), 1.3)
			cells = append(cells, cell{
				x:  clamp01(bx + rng.NormFloat64()*bsd),
				y:  clamp01(by + rng.NormFloat64()*bsd),
				sd: 0.002 + 0.02*rng.Float64(),
				w:  w,
			})
			totalW += w
		}
	}
	// Cumulative weights for sampling.
	cum := make([]float64, len(cells))
	acc := 0.0
	for i, c := range cells {
		acc += c.w / totalW
		cum[i] = acc
	}
	const (
		minArea   = 1e-9
		sizeRatio = 40000.0 // paper: largest ~40,000x the smallest
	)
	out := make([]node.Entry, r)
	for i := range out {
		// Pick a cell by weight (binary search on cum).
		u := rng.Float64()
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		c := cells[lo]
		cx := clamp01(c.x + rng.NormFloat64()*c.sd)
		cy := clamp01(c.y + rng.NormFloat64()*c.sd)
		// Log-uniform area across the full size ratio; aspect ratio
		// log-uniform in [1/8, 8] (wires and cells).
		area := minArea * math.Exp(rng.Float64()*math.Log(sizeRatio))
		aspect := math.Exp((rng.Float64()*2 - 1) * math.Log(8))
		w := math.Sqrt(area * aspect)
		h := area / w
		rect, _ := geom.NewRect(
			geom.Pt2(cx-w/2, cy-h/2),
			geom.Pt2(cx+w/2, cy+h/2),
		)
		out[i] = node.Entry{Rect: rect, Ref: uint64(i)}
	}
	return Normalize(out)
}

// ellipse is a rotated elliptical body (a wing element cross-section).
type ellipse struct {
	cx, cy float64 // center
	a, b   float64 // semi-axes (a along the chord)
	theta  float64 // rotation in radians
}

// contains reports whether the point is strictly inside the body.
func (e ellipse) contains(x, y float64) bool {
	dx, dy := x-e.cx, y-e.cy
	cos, sin := math.Cos(-e.theta), math.Sin(-e.theta)
	u := dx*cos - dy*sin
	v := dx*sin + dy*cos
	return (u*u)/(e.a*e.a)+(v*v)/(e.b*e.b) < 1
}

// at returns the point at parametric angle phi on the ellipse scaled by
// factor s >= 1 (s = 1 is the surface, s > 1 is outside).
func (e ellipse) at(phi, s float64) (x, y float64) {
	u := e.a * s * math.Cos(phi)
	v := e.b * s * math.Sin(phi)
	cos, sin := math.Cos(e.theta), math.Sin(e.theta)
	return e.cx + u*cos - v*sin, e.cy + u*sin + v*cos
}

// cfdBodies is the simulated 737 cross-section: a main wing element and a
// deployed flap, placed so the dense region sits inside the paper's query
// box (0.48,0.48)-(0.6,0.6).
var cfdBodies = []ellipse{
	{cx: 0.530, cy: 0.502, a: 0.034, b: 0.0075, theta: -0.10}, // main element
	{cx: 0.575, cy: 0.489, a: 0.013, b: 0.0030, theta: -0.45}, // flap
}

// CFD generates r mesh points resembling the paper's computational fluid
// dynamics data: points dense in boundary layers hugging the wing and flap
// surfaces (exponential falloff with distance), a sparse far field, and no
// points inside the bodies themselves — the "blank oval-ish areas" of the
// paper's Figure 5. Use r = CFDSize for the paper's experiments and
// r = CFDSmallSize for its Figure 5 plot.
func CFD(r int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]node.Entry, 0, r)
	ref := uint64(0)
	for len(out) < r {
		var x, y float64
		switch p := rng.Float64(); {
		case p < 0.60: // main-element boundary layer
			x, y = surfacePoint(rng, cfdBodies[0], 0.05)
		case p < 0.82: // flap boundary layer
			x, y = surfacePoint(rng, cfdBodies[1], 0.12)
		case p < 0.94: // wake / near field around the whole assembly
			x = 0.54 + rng.NormFloat64()*0.05
			y = 0.50 + rng.NormFloat64()*0.03
		default: // far field, density decaying with distance
			d := rng.ExpFloat64() * 0.18
			theta := rng.Float64() * 2 * math.Pi
			x = 0.54 + d*math.Cos(theta)
			y = 0.50 + d*math.Sin(theta)
		}
		if x < 0 || x > 1 || y < 0 || y > 1 {
			continue
		}
		if cfdBodies[0].contains(x, y) || cfdBodies[1].contains(x, y) {
			continue
		}
		out = append(out, node.Entry{Rect: geom.PointRect(geom.Pt2(x, y)), Ref: ref})
		ref++
	}
	return out
}

// surfacePoint samples a point in the boundary layer of the body: uniform
// angle around the surface, exponential offset outward.
func surfacePoint(rng *rand.Rand, e ellipse, falloff float64) (x, y float64) {
	phi := rng.Float64() * 2 * math.Pi
	// Offset scale factor: 1 + Exp(mean falloff), keeping the point outside.
	s := 1 + 1e-3 + rng.ExpFloat64()*falloff
	return e.at(phi, s)
}

// CFDQueryRegion is the restricted query area the paper uses for the CFD
// experiments: the box (0.48,0.48)-(0.6,0.6) around the wing, where the
// data is concentrated.
func CFDQueryRegion() geom.Rect { return geom.R2(0.48, 0.48, 0.6, 0.6) }

// Normalize rescales entries so their joint bounding box becomes the unit
// square ("To provide a uniform experiment space we normalize all data
// sets to the unit square"). Degenerate axes are centered at 0.5. The
// input is modified in place and returned.
func Normalize(entries []node.Entry) []node.Entry {
	if len(entries) == 0 {
		return entries
	}
	dims := entries[0].Rect.Dim()
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := 0; d < dims; d++ {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for _, e := range entries {
		for d := 0; d < dims; d++ {
			lo[d] = math.Min(lo[d], e.Rect.Min[d])
			hi[d] = math.Max(hi[d], e.Rect.Max[d])
		}
	}
	for i := range entries {
		r := &entries[i].Rect
		for d := 0; d < dims; d++ {
			//strlint:ignore floateq hi and lo are min/max of the same values, so equality exactly detects a degenerate axis
			if hi[d] == lo[d] {
				r.Min[d], r.Max[d] = 0.5, 0.5
				continue
			}
			scale := 1 / (hi[d] - lo[d])
			r.Min[d] = (r.Min[d] - lo[d]) * scale
			r.Max[d] = (r.Max[d] - lo[d]) * scale
		}
	}
	return entries
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
