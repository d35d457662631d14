package pack

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

func uniformSquares(n int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]node.Entry, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		s := rng.Float64() * 0.01
		r, _ := geom.NewRect(geom.Pt2(x, y), geom.Pt2(math.Min(x+s, 1), math.Min(y+s, 1)))
		out[i] = node.Entry{Rect: r, Ref: uint64(i)}
	}
	return out
}

// allOrderers lists every packing order for permutation-invariance tests.
func allOrderers() []interface {
	Order(entries []node.Entry, n, level int)
	Name() string
} {
	return []interface {
		Order(entries []node.Entry, n, level int)
		Name() string
	}{
		NX{}, HS{}, HS{Workers: 4}, STR{}, STR{Workers: 4}, TGS{},
	}
}

func TestOrdersArePermutations(t *testing.T) {
	base := uniformSquares(777, 1)
	for _, o := range allOrderers() {
		t.Run(o.Name(), func(t *testing.T) {
			entries := append([]node.Entry(nil), base...)
			o.Order(entries, 10, 0)
			if len(entries) != len(base) {
				t.Fatalf("length changed: %d", len(entries))
			}
			seen := make(map[uint64]bool, len(entries))
			for _, e := range entries {
				if seen[e.Ref] {
					t.Fatalf("ref %d duplicated", e.Ref)
				}
				seen[e.Ref] = true
				if !e.Rect.Equal(base[e.Ref].Rect) {
					t.Fatalf("ref %d rect mutated", e.Ref)
				}
			}
		})
	}
}

func TestOrderersTolerateTinyInputs(t *testing.T) {
	for _, o := range allOrderers() {
		o.Order(nil, 10, 0)
		one := uniformSquares(1, 2)
		o.Order(one, 10, 0)
		two := uniformSquares(2, 3)
		o.Order(two, 10, 0)
	}
}

func TestNXSortsByCenterX(t *testing.T) {
	entries := uniformSquares(200, 4)
	NX{}.Order(entries, 10, 0)
	for i := 1; i < len(entries); i++ {
		if entries[i].Rect.CenterAxis(0) < entries[i-1].Rect.CenterAxis(0) {
			t.Fatalf("not sorted by x at %d", i)
		}
	}
}

// TestSTRTiling checks the exact tile structure on a perfect grid. With
// r = 256 points on a 16x16 grid and n = 16: P = 16 pages, S = ceil(sqrt(P))
// = 4 vertical slices of S*n = 64 points (4 grid columns each); the y sort
// within a slice then makes every node exactly one 4x4 block of the grid.
func TestSTRTiling(t *testing.T) {
	var entries []node.Entry
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			p := geom.Pt2(float64(x)/16+0.01, float64(y)/16+0.01)
			entries = append(entries, node.Entry{Rect: geom.PointRect(p), Ref: uint64(x*16 + y)})
		}
	}
	rand.New(rand.NewSource(6)).Shuffle(len(entries), func(i, j int) {
		entries[i], entries[j] = entries[j], entries[i]
	})
	const n = 16
	STR{}.Order(entries, n, 0)
	for i, e := range entries {
		nodeIdx := i / n
		wantSlice := nodeIdx / 4 // 4 row-blocks per slice
		wantBlock := nodeIdx % 4
		gx, gy := int(e.Ref)/16, int(e.Ref)%16
		if gx/4 != wantSlice || gy/4 != wantBlock {
			t.Fatalf("position %d (node %d): point (%d,%d) outside tile (slice %d, block %d)",
				i, nodeIdx, gx, gy, wantSlice, wantBlock)
		}
	}
}

// leafMBRStats packs ordered entries into nodes of n and sums the area and
// margin of the leaf MBRs — the paper's secondary metric.
func leafMBRStats(entries []node.Entry, n int) (area, margin float64) {
	for start := 0; start < len(entries); start += n {
		end := start + n
		if end > len(entries) {
			end = len(entries)
		}
		m := entries[start].Rect.Clone()
		for _, e := range entries[start+1 : end] {
			m.UnionInPlace(e.Rect)
		}
		area += m.Area()
		margin += m.Margin()
	}
	return area, margin
}

// TestSTRBeatsNXOnPerimeter reproduces the paper's Table 4 shape: on
// uniform data NX packs long skinny nodes with an order of magnitude more
// perimeter than STR.
func TestSTRBeatsNXOnPerimeter(t *testing.T) {
	base := uniformSquares(20000, 7)
	nx := append([]node.Entry(nil), base...)
	NX{}.Order(nx, 100, 0)
	_, nxMargin := leafMBRStats(nx, 100)

	str := append([]node.Entry(nil), base...)
	STR{}.Order(str, 100, 0)
	_, strMargin := leafMBRStats(str, 100)

	if nxMargin < 4*strMargin {
		t.Fatalf("NX margin %.1f should dwarf STR margin %.1f", nxMargin, strMargin)
	}
}

// TestSTRCompetitiveWithHSOnArea: on uniform data STR's leaf area should
// be no worse than HS's (the paper reports STR slightly smaller).
func TestSTRCompetitiveWithHSOnArea(t *testing.T) {
	base := uniformSquares(5000, 8)
	hs := append([]node.Entry(nil), base...)
	HS{}.Order(hs, 100, 0)
	hsArea, _ := leafMBRStats(hs, 100)

	str := append([]node.Entry(nil), base...)
	STR{}.Order(str, 100, 0)
	strArea, _ := leafMBRStats(str, 100)

	if strArea > hsArea*1.1 {
		t.Fatalf("STR area %.3f much worse than HS area %.3f", strArea, hsArea)
	}
}

func TestHSFollowsHilbertOrder(t *testing.T) {
	// For points on a 4x4 grid in the unit square, HS must order them
	// along the order-2 Hilbert curve (the mapper is fitted to the
	// centers, so cell boundaries align with the grid).
	var entries []node.Entry
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			p := geom.Pt2(float64(x)/3, float64(y)/3)
			entries = append(entries, node.Entry{Rect: geom.PointRect(p), Ref: uint64(x*4 + y)})
		}
	}
	rand.New(rand.NewSource(9)).Shuffle(len(entries), func(i, j int) {
		entries[i], entries[j] = entries[j], entries[i]
	})
	HS{}.Order(entries, 4, 0)
	// Consecutive points along a Hilbert order are adjacent grid cells.
	for i := 1; i < len(entries); i++ {
		ax, ay := int(entries[i-1].Ref)/4, int(entries[i-1].Ref)%4
		bx, by := int(entries[i].Ref)/4, int(entries[i].Ref)%4
		d := (ax-bx)*(ax-bx) + (ay-by)*(ay-by)
		if d != 1 {
			t.Fatalf("HS order jumps from (%d,%d) to (%d,%d)", ax, ay, bx, by)
		}
	}
}

func TestParallelSTRMatchesSequential(t *testing.T) {
	base := uniformSquares(10007, 10)
	seq := append([]node.Entry(nil), base...)
	STR{}.Order(seq, 64, 0)
	par := append([]node.Entry(nil), base...)
	STR{Workers: 8}.Order(par, 64, 0)
	for i := range seq {
		if seq[i].Ref != par[i].Ref {
			t.Fatalf("parallel order diverges at %d", i)
		}
	}
}

func TestSTR3D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var entries []node.Entry
	for i := 0; i < 3000; i++ {
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		entries = append(entries, node.Entry{Rect: geom.PointRect(p), Ref: uint64(i)})
	}
	str := append([]node.Entry(nil), entries...)
	STR{}.Order(str, 27, 0)
	strArea, strMargin := leafMBRStats(str, 27)

	nx := append([]node.Entry(nil), entries...)
	NX{}.Order(nx, 27, 0)
	_, nxMargin := leafMBRStats(nx, 27)

	// Area is not discriminating for dense point sets (both packings tile
	// the whole cube), but NX's flat slabs have far larger total margin.
	if strMargin >= nxMargin/2 {
		t.Fatalf("3-D STR margin %.3g should be well below NX margin %.3g", strMargin, nxMargin)
	}
	_ = strArea
}

func TestNames(t *testing.T) {
	want := map[string]string{
		NX{}.Name():  "NX",
		HS{}.Name():  "HS",
		STR{}.Name(): "STR",
		TGS{}.Name(): "TGS",
	}
	for got, exp := range want {
		if got != exp {
			t.Fatalf("name %q != %q", got, exp)
		}
	}
}

func TestSTRSortedWithinSlices(t *testing.T) {
	entries := uniformSquares(5000, 15)
	const n = 100
	STR{}.Order(entries, n, 0)
	p := (len(entries) + n - 1) / n
	slab := n * int(math.Ceil(math.Sqrt(float64(p))))
	for start := 0; start < len(entries); start += slab {
		end := start + slab
		if end > len(entries) {
			end = len(entries)
		}
		if !sort.SliceIsSorted(entries[start:end], func(i, j int) bool {
			return entries[start+i].Rect.CenterAxis(1) < entries[start+j].Rect.CenterAxis(1)
		}) {
			t.Fatalf("slice starting at %d not sorted by y", start)
		}
	}
}

func BenchmarkSTROrder100k(b *testing.B) {
	base := uniformSquares(100000, 16)
	work := make([]node.Entry, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		STR{}.Order(work, 100, 0)
	}
}

func BenchmarkSTRParallelOrder100k(b *testing.B) {
	base := uniformSquares(100000, 16)
	work := make([]node.Entry, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		STR{Workers: 8}.Order(work, 100, 0)
	}
}

func BenchmarkHSOrder100k(b *testing.B) {
	base := uniformSquares(100000, 16)
	work := make([]node.Entry, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		HS{}.Order(work, 100, 0)
	}
}

func BenchmarkNXOrder100k(b *testing.B) {
	base := uniformSquares(100000, 16)
	work := make([]node.Entry, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		NX{}.Order(work, 100, 0)
	}
}
