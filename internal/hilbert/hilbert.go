// Package hilbert implements the Hilbert space-filling curve ordering used by
// the Hilbert-Sort (HS) packing algorithm of Kamel and Faloutsos, as
// described in Section 2.2 of the STR paper.
//
// The paper orders rectangles by the distance of their center points from
// the origin measured along the Hilbert curve of a conceptual
// 2^(2^sizeof(Exponent)+sizeof(Mantissa)) grid. In practice one never
// materializes that grid: coordinates are normalized into a finite-precision
// integer grid (Mapper) and the curve index is computed with a sense-and-
// rotation state machine. This package provides:
//
//   - Index: k-dimensional coordinates -> position along the curve
//     (Skilling's transpose algorithm, the modern formulation of the
//     sense/rotation tables referenced by the paper).
//   - Coords: the inverse mapping, used to verify bijectivity.
//   - Mapper: normalization of float64 coordinates in a bounding box onto
//     the integer grid, the practical equivalent of the paper's
//     exponent+mantissa construction.
//
// Curve indices fit in a uint64, which restricts order*dims to 64 bits;
// order 31 in two dimensions (the package default) gives a 4.3-billion-cell
// grid per axis, far finer than float64 data in the unit square requires.
package hilbert

import "fmt"

// MaxOrder2D is the finest 2-D curve order whose index fits in a uint64.
const MaxOrder2D = 31

// Index returns the position of the cell with the given coordinates along
// the Hilbert curve of the given order (bits per dimension). Coordinates
// must be < 2^order. It panics if order*len(coords) exceeds 64 or the input
// is out of range; callers construct coordinates through Mapper, which
// guarantees both.
func Index(order int, coords []uint32) uint64 {
	n := len(coords)
	checkOrder(order, n)
	x := make([]uint32, n)
	copy(x, coords)
	for i, c := range x {
		if order < 32 && c >= 1<<uint(order) {
			//strlint:ignore panics documented contract: callers construct coordinates through Mapper, which guarantees the range
			panic(fmt.Sprintf("hilbert: coordinate %d = %d out of range for order %d", i, c, order))
		}
	}
	axesToTranspose(x, order)
	return interleave(x, order)
}

// Coords is the inverse of Index: it returns the coordinates of the cell at
// the given position along the curve.
func Coords(order int, index uint64, dims int) []uint32 {
	checkOrder(order, dims)
	x := deinterleave(index, order, dims)
	transposeToAxes(x, order)
	return x
}

func checkOrder(order, dims int) {
	if order <= 0 || dims <= 0 || order*dims > 64 {
		//strlint:ignore panics documented contract: Index and Coords panic on orders that overflow a uint64 index
		panic(fmt.Sprintf("hilbert: invalid order %d for %d dimensions", order, dims))
	}
}

// axesToTranspose converts coordinates into the "transposed" Hilbert index
// in place. This is John Skilling's formulation (AIP Conf. Proc. 707, 2004)
// of the sense-and-rotation tables cited by Kamel and Faloutsos.
func axesToTranspose(x []uint32, order int) {
	n := len(x)
	m := uint32(1) << uint(order-1)
	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else { // exchange
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(x []uint32, order int) {
	n := len(x)
	m := uint32(2) << uint(order-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs the transposed representation into a single uint64 curve
// index, most significant bit plane first.
func interleave(x []uint32, order int) uint64 {
	var idx uint64
	for bit := order - 1; bit >= 0; bit-- {
		for i := 0; i < len(x); i++ {
			idx = idx<<1 | uint64((x[i]>>uint(bit))&1)
		}
	}
	return idx
}

// deinterleave unpacks a curve index into the transposed representation.
func deinterleave(idx uint64, order, dims int) []uint32 {
	x := make([]uint32, dims)
	pos := order*dims - 1
	for bit := order - 1; bit >= 0; bit-- {
		for i := 0; i < dims; i++ {
			x[i] |= uint32((idx>>uint(pos))&1) << uint(bit)
			pos--
		}
	}
	return x
}

// Index2D is a convenience wrapper for the two-dimensional case that
// dominates the paper's evaluation.
func Index2D(order int, x, y uint32) uint64 {
	return Index(order, []uint32{x, y})
}

// Mapper normalizes float64 coordinates inside a bounding box onto the
// integer grid of a Hilbert curve. It is the practical realization of the
// paper's observation that any float can be placed on a sufficiently fine
// conceptual grid: data normalized to the unit square (as all the paper's
// data sets are) loses nothing at order 31.
type Mapper struct {
	order int
	min   []float64
	scale []float64 // (2^order - 1) / extent, or 0 for degenerate axes
}

// NewMapper builds a Mapper for points inside the box [min,max] in each
// axis. Axes with zero extent map every coordinate to cell 0.
func NewMapper(order int, min, max []float64) (*Mapper, error) {
	if len(min) != len(max) || len(min) == 0 {
		return nil, fmt.Errorf("hilbert: bad bounds dimensions %d/%d", len(min), len(max))
	}
	if order <= 0 || order*len(min) > 64 {
		return nil, fmt.Errorf("hilbert: order %d unsupported for %d dims", order, len(min))
	}
	m := &Mapper{
		order: order,
		min:   append([]float64(nil), min...),
		scale: make([]float64, len(min)),
	}
	cells := float64(uint64(1)<<uint(order) - 1)
	for i := range min {
		if max[i] < min[i] {
			return nil, fmt.Errorf("hilbert: inverted bounds on axis %d", i)
		}
		if extent := max[i] - min[i]; extent > 0 {
			m.scale[i] = cells / extent
		}
	}
	return m, nil
}

// Order reports the curve order (bits per dimension) of the mapper.
func (m *Mapper) Order() int { return m.order }

// Dims reports the dimensionality of the mapper.
func (m *Mapper) Dims() int { return len(m.min) }

// Cell maps a point to its integer grid coordinates, clamping values
// outside the bounding box onto the boundary.
func (m *Mapper) Cell(p []float64) []uint32 {
	out := make([]uint32, len(m.min))
	m.CellInto(p, out)
	return out
}

// CellInto is Cell without allocation; out must have length Dims().
func (m *Mapper) CellInto(p []float64, out []uint32) {
	maxCell := uint64(1)<<uint(m.order) - 1
	for i := range m.min {
		v := (p[i] - m.min[i]) * m.scale[i]
		switch {
		//strlint:ignore floateq scale is exactly 0 for degenerate axes by construction
		case v <= 0 || m.scale[i] == 0:
			out[i] = 0
		case uint64(v) >= maxCell:
			out[i] = uint32(maxCell)
		default:
			out[i] = uint32(v)
		}
	}
}

// Key returns the Hilbert curve index of a point: its distance from the
// origin along the curve, the sort key of the HS packing algorithm.
func (m *Mapper) Key(p []float64) uint64 {
	cell := make([]uint32, len(m.min))
	m.CellInto(p, cell)
	axesToTranspose(cell, m.order)
	return interleave(cell, m.order)
}
