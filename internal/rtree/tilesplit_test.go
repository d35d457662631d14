package rtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// refTileSplit is the tile cut from its definition, on whole entries and
// without scratch: per axis a stable sort by centre (cmp.Compare, so a NaN
// sorts first), a cut at ceil(m/2), the halves' margins by geom.MBR; the
// lowest axis with the least sum below +Inf wins, axis 0 if there is none.
func refTileSplit(entries []node.Entry) (left, right []node.Entry, axis int, sums []float64) {
	h := (len(entries) + 1) / 2
	orders := make([][]node.Entry, entries[0].Rect.Dim())
	for d := range orders {
		orders[d] = slices.Clone(entries)
		slices.SortStableFunc(orders[d], func(a, b node.Entry) int {
			return cmp.Compare(a.Rect.CenterAxis(d), b.Rect.CenterAxis(d))
		})
		sums = append(sums, geom.MBR(rects(orders[d][:h])).Margin()+geom.MBR(rects(orders[d][h:])).Margin())
	}
	least := math.Inf(1)
	for d, s := range sums {
		if s < least {
			axis, least = d, s
		}
	}
	return orders[axis][:h], orders[axis][h:], axis, sums
}

// checkTileSplit runs the tile cut over entries (distinct refs) through st and
// holds it to its contract: halves of ceil(m/2) and floor(m/2), equal entry
// for entry to the reference's — so they are a permutation of the input, as the
// reference's sorted clone is, and the axis is the one with the least margin
// sum, computed independently — and the same again on a second call. It
// returns the halves joined, in order.
func checkTileSplit(t testing.TB, st *stage, entries []node.Entry) []node.Entry {
	t.Helper()
	m := len(entries)
	st.entries = append(st.entries[:0], entries...)
	left, right := st.splitTile()
	if len(left) != (m+1)/2 || len(right) != m/2 {
		t.Fatalf("%d entries cut %d/%d, want %d/%d", m, len(left), len(right), (m+1)/2, m/2)
	}
	got := append(slices.Clone(left), right...)
	wantL, wantR, axis, sums := refTileSplit(entries)
	if !sameEntries(left, wantL) || !sameEntries(right, wantR) {
		t.Fatalf("%d entries, margin sums %v: halves differ from the reference's cut on axis %d", m, sums, axis)
	}
	if !sameEntries(st.entries, entries) {
		t.Fatal("the split reordered its input")
	}
	left, right = st.splitTile()
	if again := append(slices.Clone(left), right...); !sameEntries(again, got) {
		t.Fatal("a second call over the same entries cut differently")
	}
	return got
}

// tileShape is one family of overflowing entry sets; distinct says every
// centre differs on every axis, so the cut cannot depend on entry order.
type tileShape struct {
	name     string
	distinct bool
	rect     func(rng *rand.Rand, dims, i, m int) geom.Rect
}

func boxRect(dims int, side func(d int) (lo, hi float64)) geom.Rect {
	r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	for d := range r.Min {
		r.Min[d], r.Max[d] = side(d)
	}
	return r
}

var tileShapes = []tileShape{
	{"random", true, func(rng *rand.Rand, dims, _, _ int) geom.Rect {
		return boxRect(dims, func(int) (float64, float64) { lo := rng.Float64() * 100; return lo, lo + rng.Float64() })
	}},
	// The dupHeavy case: Guttman's linear split degenerates to its (0, 1)
	// seeds here, the tile cut to entry order.
	{"identical", false, func(_ *rand.Rand, dims, _, _ int) geom.Rect {
		return boxRect(dims, func(d int) (float64, float64) { return float64(d), float64(d) + 1 })
	}},
	{"one axis tied", false, func(rng *rand.Rand, dims, _, m int) geom.Rect {
		return boxRect(dims, func(d int) (float64, float64) {
			if lo := rng.Float64() * 100; d != m%dims {
				return lo, lo + rng.Float64()
			}
			half := float64(int(1)<<rng.Intn(4)) / 4 // exact, so the centre is 7 to the bit
			return 7 - half, 7 + half
		})
	}},
	// (-Inf, +Inf) and (-Inf, x) have NaN centres, (x, +Inf) has +Inf.
	{"infinite sides", false, func(rng *rand.Rand, dims, i, _ int) geom.Rect {
		return boxRect(dims, func(d int) (float64, float64) {
			lo := rng.Float64() * 100
			switch (i + d) % 5 {
			case 0:
				return math.Inf(-1), math.Inf(1)
			case 1:
				return math.Inf(-1), lo
			case 2:
				return lo, math.Inf(1)
			}
			return lo, lo + 1
		})
	}},
	// Every side overflows: every axis's margin sum is +Inf.
	{"huge", false, func(rng *rand.Rand, dims, _, _ int) geom.Rect {
		return boxRect(dims, func(int) (float64, float64) {
			return -math.MaxFloat64 * (0.5 + rng.Float64()/2), math.MaxFloat64 * (0.5 + rng.Float64()/2)
		})
	}},
	// Axis 0 is [+Inf, +Inf] throughout: its side is Inf - Inf, and every
	// axis's margin sum NaN.
	{"nan margins", false, func(rng *rand.Rand, dims, _, _ int) geom.Rect {
		return boxRect(dims, func(d int) (float64, float64) {
			if d == 0 {
				return math.Inf(1), math.Inf(1)
			}
			lo := rng.Float64() * 100
			return lo, lo + 1
		})
	}},
	{"sorted", true, func(_ *rand.Rand, dims, i, _ int) geom.Rect {
		return boxRect(dims, func(d int) (float64, float64) { return float64(i * (d + 1)), float64(i*(d+1)) + 0.5 })
	}},
	{"reversed", true, func(_ *rand.Rand, dims, i, m int) geom.Rect {
		return boxRect(dims, func(d int) (float64, float64) { return float64((m - i) * (d + 1)), float64((m-i)*(d+1)) + 0.5 })
	}},
}

func (s tileShape) entries(rng *rand.Rand, dims, m int) []node.Entry {
	out := make([]node.Entry, m)
	for i := range out {
		out[i] = node.Entry{Rect: s.rect(rng, dims, i, m), Ref: uint64(i)}
		if !out[i].Rect.Valid() {
			panic(fmt.Sprintf("shape %q makes an invalid rectangle %v", s.name, out[i].Rect))
		}
	}
	return out
}

// TestSplitTileEdges runs the contract over every overflow size from 3
// (capacity 2, the smallest legal) to 103 in 1 to 4 dimensions, on the input
// families above; where centres are distinct a shuffled input must cut into
// the same two sequences.
func TestSplitTileEdges(t *testing.T) {
	for _, shape := range tileShapes {
		for dims := 1; dims <= 4; dims++ {
			t.Run(fmt.Sprintf("%s/k=%d", shape.name, dims), func(t *testing.T) {
				var st stage
				rng := rand.New(rand.NewSource(int64(dims)))
				for m := 3; m <= 103; m++ {
					entries := shape.entries(rng, dims, m)
					got := checkTileSplit(t, &st, entries)
					if shape.distinct {
						rng.Shuffle(m, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
						if !sameEntries(checkTileSplit(t, &st, entries), got) {
							t.Fatalf("%d entries: shuffled input cut differently", m)
						}
					}
				}
			})
		}
	}
	// No finite sum anywhere: axis 0's order is the answer, not an unset one.
	for _, name := range []string{"huge", "nan margins"} {
		shape := tileShapes[slices.IndexFunc(tileShapes, func(s tileShape) bool { return s.name == name })]
		if _, _, axis, sums := refTileSplit(shape.entries(rand.New(rand.NewSource(1)), 3, 103)); axis != 0 || sums[1] < math.Inf(1) {
			t.Fatalf("shape %q: margin sums %v chose axis %d; the shape no longer exercises the fallback", name, sums, axis)
		}
	}
}

// TestSplitTileZeroAlloc: once the stage is warm a split allocates nothing,
// in any dimensionality, whatever the input.
func TestSplitTileZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for dims := 1; dims <= 4; dims++ {
		for _, shape := range tileShapes {
			st := &stage{entries: shape.entries(rand.New(rand.NewSource(9)), dims, 103)}
			st.splitTile()
			if allocs := testing.AllocsPerRun(20, func() { st.splitTile() }); allocs != 0 {
				t.Errorf("shape %q dims %d: a warm split allocated %.1f times, want 0", shape.name, dims, allocs)
			}
		}
	}
}

// fuzzCoord maps a byte to a coordinate: a coarse grid, so ties are common,
// with the values that break naive arithmetic at the top of the range.
func fuzzCoord(b byte) float64 {
	special := [...]float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1e300, math.MaxFloat64, math.Inf(1),
	}
	if i := int(b) - (256 - len(special)); i >= 0 {
		return special[i]
	}
	return float64(b) / 8
}

// fuzzTileBytes is the inverse, near enough, for seeding: the shape's
// rectangles snapped to fuzzCoord's values.
func fuzzTileBytes(shape tileShape, dims, m int) []byte {
	code := func(x float64) byte {
		if math.Abs(x) < 1e6 {
			x /= 4 // the shapes live in [0, 412), the grid in [0, 31)
		}
		best := byte(0)
		for b := 1; b < 256; b++ {
			if c := fuzzCoord(byte(b)); c == x || math.Abs(c-x) < math.Abs(fuzzCoord(best)-x) {
				best = byte(b)
			}
		}
		return best
	}
	data := []byte{byte(dims - 1), byte(m - 3)}
	for _, e := range shape.entries(rand.New(rand.NewSource(3)), dims, m) {
		for d := 0; d < dims; d++ {
			data = append(data, code(e.Rect.Min[d]), code(e.Rect.Max[d]))
		}
	}
	return data
}

// FuzzSplitTile decodes an overflowing entry set — dimensionality, size, two
// bytes per side — and holds the tile cut to checkTileSplit's contract.
func FuzzSplitTile(f *testing.F) {
	for _, shape := range tileShapes {
		f.Add(fuzzTileBytes(shape, 2, 103))
		f.Add(fuzzTileBytes(shape, 3, 7))
	}
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dims, m := 1+int(data[0]%4), 3+int(data[1]%101)
		data = data[2:]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return fuzzCoord(b)
		}
		entries := make([]node.Entry, m)
		for i := range entries {
			entries[i] = node.Entry{Ref: uint64(i), Rect: boxRect(dims, func(int) (float64, float64) {
				a, b := next(), next()
				return min(a, b), max(a, b)
			})}
		}
		checkTileSplit(t, &stage{}, entries)
	})
}

// BenchmarkSplitPolicies prices one split of a full 2-D page's 103 entries
// under each policy: the tile cut and R*, and the Guttman baselines the tile
// cut displaced. Each iteration splits a fresh copy of the same entries (R*
// sorts its input in place); the copy is in every arm's time.
func BenchmarkSplitPolicies(b *testing.B) {
	pristine := randRects(103, 24)
	entries := make([]node.Entry, len(pristine))
	var st stage
	for _, policy := range []struct {
		name  string
		split func() (left, right []node.Entry)
	}{
		{"tile", func() ([]node.Entry, []node.Entry) {
			st.entries = append(st.entries[:0], entries...)
			return st.splitTile()
		}},
		{"linear", func() ([]node.Entry, []node.Entry) { return splitLinear(entries, 40) }},
		{"quadratic", func() ([]node.Entry, []node.Entry) { return splitQuadratic(entries, 40) }},
		{"rstar", func() ([]node.Entry, []node.Entry) { return splitRStar(entries, 40) }},
	} {
		b.Run(policy.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(entries, pristine)
				if left, right := policy.split(); len(left)+len(right) != len(pristine) {
					b.Fatalf("split %d/%d", len(left), len(right))
				}
			}
		})
	}
}
