package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

type xOrder struct{}

func (xOrder) Name() string { return "x" }
func (xOrder) Order(entries []node.Entry, n, level int) {
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Rect.CenterAxis(0) < entries[j].Rect.CenterAxis(0)
	})
}

// OrderRecords runs Order over the records decoded into entries.
func (o xOrder) OrderRecords(recs []byte, dims, n int) []byte {
	entries := make([]node.Entry, len(recs)/node.EntrySize(dims))
	psort.Decode(entries, recs, dims, 1)
	o.Order(entries, n, 0)
	recs, _ = psort.Encode(entries, 1)
	return recs
}

func TestMeasureHandComputed(t *testing.T) {
	// 4 points on a line, capacity 2: two leaves ([0,0.1] and [0.2,0.3] in
	// x, all at y=0) and a root.
	pool := buffer.NewPool(storage.NewMemPager(4096), 32)
	tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	entries := []node.Entry{
		{Rect: geom.PointRect(geom.Pt2(0.0, 0)), Ref: 0},
		{Rect: geom.PointRect(geom.Pt2(0.1, 0)), Ref: 1},
		{Rect: geom.PointRect(geom.Pt2(0.2, 0)), Ref: 2},
		{Rect: geom.PointRect(geom.Pt2(0.3, 0)), Ref: 3},
	}
	if err := tr.BulkLoad(entries, xOrder{}); err != nil {
		t.Fatal(err)
	}
	m, err := Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 3 || m.LeafNodes != 2 {
		t.Fatalf("nodes = %d leaves = %d", m.Nodes, m.LeafNodes)
	}
	// Leaves: [0, 0.1] and [0.2, 0.3] in x, degenerate in y.
	// Areas 0; margins 2*0.1 each.
	if m.LeafArea != 0 {
		t.Fatalf("leaf area = %g", m.LeafArea)
	}
	if math.Abs(m.LeafMargin-0.4) > 1e-12 {
		t.Fatalf("leaf margin = %g, want 0.4", m.LeafMargin)
	}
	// Root MBR: [0, 0.3] x {0}: margin 0.6. Totals: 0.4 + 0.6 = 1.0.
	if math.Abs(m.TotalMargin-1.0) > 1e-12 {
		t.Fatalf("total margin = %g, want 1.0", m.TotalMargin)
	}
	if m.TotalArea != 0 {
		t.Fatalf("total area = %g", m.TotalArea)
	}
}

func TestMeasureAreas(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 32)
	tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	entries := []node.Entry{
		{Rect: geom.R2(0, 0, 0.2, 0.2), Ref: 0},
		{Rect: geom.R2(0.1, 0.1, 0.3, 0.3), Ref: 1},
	}
	if err := tr.BulkLoad(entries, xOrder{}); err != nil {
		t.Fatal(err)
	}
	m, err := Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Single leaf = root: MBR [0,0.3]^2, area 0.09, margin 1.2. Leaf and
	// total coincide.
	if math.Abs(m.LeafArea-0.09) > 1e-12 || math.Abs(m.TotalArea-0.09) > 1e-12 {
		t.Fatalf("areas: leaf %g total %g", m.LeafArea, m.TotalArea)
	}
	if math.Abs(m.LeafMargin-1.2) > 1e-12 {
		t.Fatalf("leaf margin %g", m.LeafMargin)
	}
	if m.Nodes != 1 || m.LeafNodes != 1 {
		t.Fatalf("nodes %d leaves %d", m.Nodes, m.LeafNodes)
	}
}

func TestExpectedAccessesPointQueryIsAreaSum(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 32)
	tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	entries := []node.Entry{
		{Rect: geom.R2(0, 0, 0.2, 0.2), Ref: 0},
		{Rect: geom.R2(0.1, 0.1, 0.3, 0.3), Ref: 1},
		{Rect: geom.R2(0.6, 0.6, 0.9, 0.9), Ref: 2},
		{Rect: geom.R2(0.7, 0.7, 1.0, 1.0), Ref: 3},
	}
	if err := tr.BulkLoad(entries, xOrder{}); err != nil {
		t.Fatal(err)
	}
	got, err := ExpectedAccesses(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	// With zero extents the per-node probability is its MBR area, so the
	// expectation equals the total-area metric.
	if math.Abs(got-m.TotalArea) > 1e-12 {
		t.Fatalf("point-query expectation %g != total area %g", got, m.TotalArea)
	}
	// Larger queries expect more accesses, capped at the node count.
	big, err := ExpectedAccesses(tr, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if big <= got {
		t.Fatalf("extent did not increase expectation: %g <= %g", big, got)
	}
	if big > float64(m.Nodes)+1e-12 {
		t.Fatalf("expectation %g exceeds node count %d", big, m.Nodes)
	}
}

func TestExpectedAccessesPredictsUnbufferedMeasurement(t *testing.T) {
	// The model assumes no buffering, so measure with a 3-page pool where
	// cross-query reuse is negligible; clamped boundary queries keep the
	// match approximate, hence the generous tolerance band.
	pool := buffer.NewPool(storage.NewMemPager(4096), 3)
	tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: 50})
	if err != nil {
		t.Fatal(err)
	}
	rng := randEntries(5000, 7)
	if err := tr.BulkLoad(rng, xOrder{}); err != nil {
		t.Fatal(err)
	}
	const extent = 0.1
	model, err := ExpectedAccesses(tr, []float64{extent, extent})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	const queries = 400
	r := randQueries(queries, extent, 8)
	for _, q := range r {
		if err := tr.Search(q, func(node.Entry) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	measured := float64(pool.Stats().DiskReads) / queries
	if measured < model*0.6 || measured > model*1.25 {
		t.Fatalf("model %g vs measured %g: disagreement beyond tolerance", model, measured)
	}
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func randEntries(n int, seed int64) []node.Entry {
	rng := randSource(seed)
	out := make([]node.Entry, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		s := rng.Float64() * 0.01
		r, _ := geom.NewRect(geom.Pt2(x, y), geom.Pt2(math.Min(x+s, 1), math.Min(y+s, 1)))
		out[i] = node.Entry{Rect: r, Ref: uint64(i)}
	}
	return out
}

func randQueries(n int, extent float64, seed int64) []geom.Rect {
	rng := randSource(seed)
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := rng.Float64(), rng.Float64()
		hi := geom.UnitSquare().Clamp(geom.Pt2(x+extent, y+extent))
		r, _ := geom.NewRect(geom.Pt2(x, y), hi)
		out[i] = r
	}
	return out
}

func TestMeasureEmptyTree(t *testing.T) {
	pool := buffer.NewPool(storage.NewMemPager(4096), 32)
	tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if m != (TreeMetrics{}) {
		t.Fatalf("empty tree metrics = %+v", m)
	}
}
