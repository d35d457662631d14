package hilbert

import "fmt"

// Compare2D reports the order of two cells along the 2-D Hilbert curve
// (-1, 0 or +1) without materializing curve indices: an oracle for the
// ordering Index2D's keys must induce, independent of how Index builds
// them. No packer sorts with it — every order in this repository is an
// order of uint64 keys (internal/psort). This is exactly the
// procedure the paper describes for HS packing: "the bits of each
// coordinate are examined until it can be determined that one of the
// points lies in a different subquadrant than the other ... In practice,
// one does not store or compute all bit values on the hypothetical grid."
// Because no 2*order-bit index is built, the order may be up to 63 bits
// per axis — fine enough to distinguish any two float64 coordinates, the
// paper's exponent+mantissa construction realized.
func Compare2D(order int, ax, ay, bx, by uint64) int {
	if order <= 0 || order > 63 {
		panic(fmt.Sprintf("hilbert: invalid 2-D compare order %d", order))
	}
	// Walk quadrants from the top. Both points share the same rotation
	// state until their subquadrants diverge; the quadrant's position
	// along the curve (0..3) decides the order at the first divergence.
	for s := uint64(1) << uint(order-1); s > 0; s >>= 1 {
		arx, ary := (ax&s) != 0, (ay&s) != 0
		brx, bry := (bx&s) != 0, (by&s) != 0
		ad := quadrantRank(arx, ary)
		bd := quadrantRank(brx, bry)
		if ad != bd {
			if ad < bd {
				return -1
			}
			return 1
		}
		// Same subquadrant: apply that quadrant's rotation to both
		// points and descend (the rotation of the classic d2xy walk).
		ax, ay = rotate(s, ax, ay, arx, ary)
		bx, by = rotate(s, bx, by, brx, bry)
	}
	return 0
}

// quadrantRank maps a quadrant's (rx, ry) bits to its position along the
// curve: (3*rx) XOR ry of the classic algorithm.
func quadrantRank(rx, ry bool) int {
	r := 0
	if rx {
		r = 3
	}
	if ry {
		r ^= 1
	}
	return r
}

// rotate is the quadrant rotation of the classic 2-D Hilbert walk,
// reduced to the bits below s (higher bits are never consulted again).
func rotate(s, x, y uint64, rx, ry bool) (uint64, uint64) {
	lowX, lowY := x&(s-1), y&(s-1)
	if ry {
		return lowX, lowY
	}
	if rx {
		lowX = s - 1 - lowX
		lowY = s - 1 - lowY
	}
	return lowY, lowX // swap x and y
}
