package rtree

import (
	"bytes"
	"cmp"
	"errors"
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

// recordsOf encodes entries as the stage holds them: page records, in order.
func recordsOf(entries []node.Entry) []byte {
	var recs []byte
	for _, e := range entries {
		recs = appendRecord(recs, e.Rect, e.Ref)
	}
	return recs
}

// entriesOf decodes a run of page records of dims axes into entries.
func entriesOf(recs []byte, dims int) []node.Entry {
	size := node.EntrySize(dims)
	out := make([]node.Entry, 0, len(recs)/size)
	for ; len(recs) > 0; recs = recs[size:] {
		out = append(out, recordEntry(recs, dims))
	}
	return out
}

// sameBits reports whether a and b are the same rectangle word for word:
// -0 is not +0 here, since the MBR a split hands the parent is stored.
func sameBits(a, b geom.Rect) bool {
	for d := range a.Min {
		if math.Float64bits(a.Min[d]) != math.Float64bits(b.Min[d]) || math.Float64bits(a.Max[d]) != math.Float64bits(b.Max[d]) {
			return false
		}
	}
	return true
}

// tileCut runs the tile cut over entries on a fresh stage and returns the
// halves as entries: the cut as the baseline comparisons see it.
func tileCut(entries []node.Entry) (left, right []node.Entry) {
	dims := entries[0].Rect.Dim()
	st := &stage{recs: recordsOf(entries)}
	lbox, rbox := geom.UnitCube(dims), geom.UnitCube(dims)
	l, r, _ := st.splitTile(dims, &lbox, &rbox)
	return entriesOf(l, dims), entriesOf(r, dims)
}

// checkTileSplit stages entries (distinct refs) as page records in st, runs
// the tile cut over them and holds it to its contract: halves of ceil(m/2)
// and floor(m/2) records, byte for byte the reference's halves in the
// reference's order — so they are a permutation of the input, as the
// reference's sorted clone is — the same axis, the one with the least margin
// sum computed independently, and the halves' MBRs word for word geom.MBR of
// the reference's; the staged records untouched, and the same again on a
// second call. It returns the halves joined, in order, as entries.
func checkTileSplit(t testing.TB, st *stage, entries []node.Entry) []node.Entry {
	t.Helper()
	m, dims := len(entries), entries[0].Rect.Dim()
	input := recordsOf(entries)
	st.recs = append(st.recs[:0], input...)
	lbox, rbox := geom.UnitCube(dims), geom.UnitCube(dims)
	left, right, axis := st.splitTile(dims, &lbox, &rbox)
	size := node.EntrySize(dims)
	if len(left) != (m+1)/2*size || len(right) != m/2*size {
		t.Fatalf("%d entries cut %d/%d records, want %d/%d", m, len(left)/size, len(right)/size, (m+1)/2, m/2)
	}
	wantL, wantR, wantAxis, sums := refTileSplit(entries)
	if !bytes.Equal(left, recordsOf(wantL)) || !bytes.Equal(right, recordsOf(wantR)) {
		t.Fatalf("%d entries, margin sums %v: halves differ from the reference's cut on axis %d", m, sums, wantAxis)
	}
	if axis != wantAxis {
		t.Fatalf("%d entries, margin sums %v: cut on axis %d, the reference on %d", m, sums, axis, wantAxis)
	}
	if !sameBits(lbox, geom.MBR(rects(wantL))) || !sameBits(rbox, geom.MBR(rects(wantR))) {
		t.Fatalf("%d entries: half MBRs %v and %v, the reference's %v and %v", m, lbox, rbox, geom.MBR(rects(wantL)), geom.MBR(rects(wantR)))
	}
	if !bytes.Equal(st.recs, input) {
		t.Fatal("the split changed the staged records")
	}
	got := append(slices.Clone(left), right...)
	left, right, _ = st.splitTile(dims, &lbox, &rbox)
	if again := append(slices.Clone(left), right...); !bytes.Equal(again, got) {
		t.Fatal("a second call over the same records cut differently")
	}
	return entriesOf(got, dims)
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
	// Sides of a quarter of MaxFloat64 on either side of 0: the margins are
	// finite near the top of the range, and their sums may overflow to +Inf
	// on some axes and not on others.
	{"near max", false, func(rng *rand.Rand, dims, _, _ int) geom.Rect {
		return boxRect(dims, func(int) (float64, float64) {
			return -math.MaxFloat64 / 8 * (0.5 + rng.Float64()/2), math.MaxFloat64 / 8 * (0.5 + rng.Float64()/2)
		})
	}},
	// Sides built from -0 and +0, which compare equal but are stored apart:
	// which zero an MBR keeps depends on the order it grows in.
	{"signed zeros", false, func(rng *rand.Rand, dims, _, _ int) geom.Rect {
		negZero := math.Copysign(0, -1)
		return boxRect(dims, func(int) (float64, float64) {
			switch rng.Intn(5) {
			case 0:
				return negZero, 0
			case 1:
				return 0, negZero
			case 2:
				return negZero, negZero
			case 3:
				return -1, 1
			}
			return 0, 0
		})
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

// TestSortPairs holds the split's sort to a stable comparison sort on key
// sets of every shape it can meet: random, few distinct keys, sorted with a
// tail appended, reversed, one outlier beside a tight cluster, all keys
// equal; up to 700 pairs, so buckets of the counting pass hold many.
func TestSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, shape := range []struct {
		name string
		key  func(i, n int) uint64
	}{
		{"random", func(int, int) uint64 { return rng.Uint64() }},
		{"few", func(int, int) uint64 { return uint64(rng.Intn(5)) << 60 }},
		{"appended", func(i, n int) uint64 {
			if i < n*9/10 {
				return uint64(i) << 40
			}
			return rng.Uint64()
		}},
		{"reversed", func(i, n int) uint64 { return uint64(n - i) }},
		{"outlier", func(i, _ int) uint64 {
			if i == 0 {
				return math.MaxUint64
			}
			return 1<<40 + uint64(rng.Intn(1000))
		}},
		{"equal", func(int, int) uint64 { return 7 }},
	} {
		for _, n := range []int{2, 3, 8, 9, 17, 103, 257, 700} {
			ps := make([]tilePair, n)
			for i := range ps {
				ps[i] = tilePair{key: shape.key(i, n), idx: int32(i)}
			}
			want := slices.Clone(ps)
			slices.SortStableFunc(want, func(a, b tilePair) int { return cmp.Compare(a.key, b.key) })
			sortPairs(ps, make([]tilePair, n))
			if !slices.Equal(ps, want) {
				t.Fatalf("%s, %d pairs: sortPairs differs from a stable sort", shape.name, n)
			}
		}
	}
}

// overflowRun is the record path of one overflow as fillNode-free code can
// run it: stage a full page's records and one incoming entry's, cut them,
// fill the two halves' pages.
type overflowRun struct {
	st                stage
	page, left, right []byte
	count, dims       int
	e                 node.Entry
	lbox, rbox        geom.Rect
}

// newOverflowRun marshals all of entries but the last onto a page, which the
// last then overflows.
func newOverflowRun(t testing.TB, entries []node.Entry) *overflowRun {
	m, dims := len(entries), entries[0].Rect.Dim()
	size := node.HeaderSize + m*node.EntrySize(dims)
	o := &overflowRun{
		page: make([]byte, size), left: make([]byte, size), right: make([]byte, size),
		count: m - 1, dims: dims, e: entries[m-1],
		lbox: geom.UnitCube(dims), rbox: geom.UnitCube(dims),
	}
	if err := node.Marshal(&node.Node{Dims: dims, Entries: entries[:m-1]}, o.page); err != nil {
		t.Fatal(err)
	}
	return o
}

func (o *overflowRun) run() error {
	o.st.load(o.page, o.count, o.dims, o.e)
	left, right, _ := o.st.splitTile(o.dims, &o.lbox, &o.rbox)
	return errors.Join(node.FillRecords(o.left, 0, o.dims, left), node.FillRecords(o.right, 0, o.dims, right))
}

// TestSplitTileZeroAlloc: once the stage is warm the record path of a split —
// staging from a page, the cut, two page fills — allocates nothing, in any
// dimensionality, whatever the input.
func TestSplitTileZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for dims := 1; dims <= 4; dims++ {
		for _, shape := range tileShapes {
			o := newOverflowRun(t, shape.entries(rand.New(rand.NewSource(9)), dims, 103))
			if err := o.run(); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() { _ = o.run() }); allocs != 0 {
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
// cut displaced. The tile arm is the record path the tree runs — the page's
// records and the incoming one's staged, the cut, both halves' pages filled
// (overflowRun) — so its time includes the staging and the two page writes.
// The baselines split a fresh copy of the entries each iteration (R* sorts
// its input in place), and the copy is in their time; writing their halves
// would add two node.Marshal calls. Iterations cycle through 64 different
// entry sets: over one set repeated, the branch predictor learns the sort's
// comparisons and a split reads up to three times faster than it runs.
func BenchmarkSplitPolicies(b *testing.B) {
	const sets = 64
	pristine := make([][]node.Entry, sets)
	tile := make([]*overflowRun, sets)
	for i := range pristine {
		pristine[i] = randRects(103, 24+int64(i))
		tile[i] = newOverflowRun(b, pristine[i])
	}
	entries := make([]node.Entry, 103)
	baseline := func(split func([]node.Entry, int) ([]node.Entry, []node.Entry)) func(int) error {
		return func(i int) error {
			copy(entries, pristine[i%sets])
			return checkHalves(split(entries, 40))
		}
	}
	for _, policy := range []struct {
		name  string
		split func(i int) error
	}{
		{"tile", func(i int) error { return tile[i%sets].run() }},
		{"linear", baseline(splitLinear)},
		{"quadratic", baseline(splitQuadratic)},
		{"rstar", baseline(splitRStar)},
	} {
		b.Run(policy.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := policy.split(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// checkHalves is a baseline split's sanity check: nothing lost.
func checkHalves(left, right []node.Entry) error {
	if len(left)+len(right) != 103 {
		return fmt.Errorf("split %d/%d", len(left), len(right))
	}
	return nil
}
