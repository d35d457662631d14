// Package geom provides the k-dimensional axis-aligned geometry used by the
// R-tree: points, hyper-rectangles, and the measures the STR paper reports
// (area and perimeter/margin of minimum bounding rectangles).
//
// A hyper-rectangle is defined, as in the paper, by k intervals [Min[i],
// Max[i]] and is the locus of points whose i-th coordinate falls inside the
// i-th interval. The two-dimensional case dominates the paper's evaluation,
// so convenience constructors for 2-D are provided, but every operation works
// for arbitrary k.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a location in k-dimensional space. The dimension is len(p).
type Point []float64

// Pt2 returns a 2-D point.
func Pt2(x, y float64) Point { return Point{x, y} }

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		//strlint:ignore floateq exact coordinate equality is the contract: MBR tightness and page round-trips are bit-exact
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// String renders the point as "(x, y, ...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", c)
	}
	b.WriteByte(')')
	return b.String()
}

// Rect is a closed axis-aligned hyper-rectangle. A Rect is valid when
// len(Min) == len(Max) and Min[i] <= Max[i] for all i. A degenerate Rect
// (Min == Max in some or all axes) represents a point or lower-dimensional
// box and is valid.
type Rect struct {
	Min, Max Point
}

// R2 returns the 2-D rectangle [x0,x1] x [y0,y1]. It panics if x0 > x1 or
// y0 > y1; use NewRect for checked construction.
func R2(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 || y0 > y1 {
		//strlint:ignore panics documented contract: R2 panics on inverted input, NewRect is the checked constructor
		panic(fmt.Sprintf("geom: inverted rectangle [%g,%g]x[%g,%g]", x0, x1, y0, y1))
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// NewRect builds a rectangle from two corner points, reordering coordinates
// so the result is valid. It returns an error if the dimensions disagree or
// any coordinate is NaN.
func NewRect(a, b Point) (Rect, error) {
	if len(a) != len(b) {
		return Rect{}, fmt.Errorf("geom: corner dimensions disagree: %d vs %d", len(a), len(b))
	}
	lo := make(Point, len(a))
	hi := make(Point, len(a))
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return Rect{}, fmt.Errorf("geom: NaN coordinate in axis %d", i)
		}
		lo[i] = math.Min(a[i], b[i])
		hi[i] = math.Max(a[i], b[i])
	}
	return Rect{Min: lo, Max: hi}, nil
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// Dim reports the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// Valid reports whether r is a well-formed rectangle: matching dimensions,
// no NaNs, and Min <= Max on every axis.
func (r Rect) Valid() bool {
	if len(r.Min) == 0 || len(r.Min) != len(r.Max) {
		return false
	}
	for i := range r.Min {
		if math.IsNaN(r.Min[i]) || math.IsNaN(r.Max[i]) || r.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Equal reports whether r and s are the same rectangle.
func (r Rect) Equal(s Rect) bool {
	return r.Min.Equal(s.Min) && r.Max.Equal(s.Max)
}

// CenterAxis returns the center coordinate along one axis without
// allocating. It is the hot operation in every packing sort.
func (r Rect) CenterAxis(axis int) float64 {
	return r.Min[axis] + (r.Max[axis]-r.Min[axis])/2
}

// Side returns the extent of r along one axis.
func (r Rect) Side(axis int) float64 { return r.Max[axis] - r.Min[axis] }

// Area returns the k-dimensional volume of r (the paper's "area" metric in
// 2-D). A degenerate rectangle has area zero.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the sum of the side lengths of r times 2^(k-1), which in
// two dimensions is exactly the perimeter the paper reports. (This is the
// standard generalization used by the R*-tree literature.)
func (r Rect) Margin() float64 {
	s := 0.0
	for i := range r.Min {
		s += r.Max[i] - r.Min[i]
	}
	if k := len(r.Min); k > 1 {
		s *= float64(int(1) << (k - 1))
	}
	return s
}

// Intersects reports whether r and s share at least one point (closed-box
// semantics: touching edges intersect). This is the predicate used by both
// point and region queries in the paper.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Min {
		if r.Min[i] > s.Max[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether p lies inside r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	u := Rect{Min: make(Point, len(r.Min)), Max: make(Point, len(r.Max))}
	for i := range r.Min {
		u.Min[i] = math.Min(r.Min[i], s.Min[i])
		u.Max[i] = math.Max(r.Max[i], s.Max[i])
	}
	return u
}

// UnionInPlace grows r to cover s, avoiding allocation. r must already be a
// valid rectangle of the same dimension as s.
func (r *Rect) UnionInPlace(s Rect) {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
}

// Intersect returns the intersection of r and s and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{Min: make(Point, len(r.Min)), Max: make(Point, len(r.Max))}
	for i := range r.Min {
		out.Min[i] = math.Max(r.Min[i], s.Min[i])
		out.Max[i] = math.Min(r.Max[i], s.Max[i])
		if out.Min[i] > out.Max[i] {
			return Rect{}, false
		}
	}
	return out, true
}

// Enlargement returns the increase in area needed for r to cover s. It is
// the quantity minimized by Guttman's ChooseLeaf. The value is exactly
// r.Union(s).Area() - r.Area(), the same operations in the same order,
// without building the union: ChooseLeaf calls this once per entry of every
// node an insertion descends through.
func (r Rect) Enlargement(s Rect) float64 {
	u := 1.0
	for i := range r.Min {
		u *= math.Max(r.Max[i], s.Max[i]) - math.Min(r.Min[i], s.Min[i])
	}
	return u - r.Area()
}

// MBR returns the minimum bounding rectangle of a non-empty set of
// rectangles. It panics on an empty input because an empty set has no MBR.
func MBR(rects []Rect) Rect {
	if len(rects) == 0 {
		//strlint:ignore panics documented contract: an empty set has no MBR
		panic("geom: MBR of empty set")
	}
	m := rects[0].Clone()
	for _, r := range rects[1:] {
		m.UnionInPlace(r)
	}
	return m
}

// String renders r as "[min .. max]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s .. %s]", r.Min, r.Max)
}

// UnitSquare is the normalized data space of the paper's experiments: all
// data sets are normalized to [0,1]^2.
func UnitSquare() Rect { return R2(0, 0, 1, 1) }

// UnitCube returns [0,1]^k.
func UnitCube(k int) Rect {
	r := Rect{Min: make(Point, k), Max: make(Point, k)}
	for i := 0; i < k; i++ {
		r.Max[i] = 1
	}
	return r
}

// Clamp returns p with every coordinate clamped into r. The paper's query
// generator clamps region query corners at 1.0 this way.
func (r Rect) Clamp(p Point) Point {
	q := p.Clone()
	for i := range q {
		if q[i] < r.Min[i] {
			q[i] = r.Min[i]
		}
		if q[i] > r.Max[i] {
			q[i] = r.Max[i]
		}
	}
	return q
}
