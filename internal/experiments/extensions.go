package experiments

import (
	"fmt"
	"math/rand"

	"strtree/internal/buffer"
	"strtree/internal/datagen"
	"strtree/internal/geom"
	"strtree/internal/metrics"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/query"
	"strtree/internal/rtree"
	"strtree/internal/storage"
	"strtree/internal/trace"
)

func init() {
	Register("ext3d", Ext3D)
	Register("extdynamic", ExtDynamic)
	Register("extsplits", ExtSplits)
	Register("extwarmup", ExtWarmup)
	Register("extmodel", ExtModel)
}

// Ext3D evaluates the k = 3 generalization of STR (paper Section 2.2
// describes the recursion for k > 2 but evaluates only k = 2): disk
// accesses for cube queries on uniform 3-D points, STR vs HS vs NX.
func Ext3D(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Extension 3-D",
		Title:  "Disk Accesses, Uniform 3-D Points, Cube Region Queries",
		Note:   scaleNote(cfg),
		Header: []string{"Data Size", "Query Side", "STR", "HS", "NX", "HS/STR", "NX/STR"},
	}
	capacity := 72 // 3-D capacity of a 4 KiB page
	algs := []Algorithm{
		{Name: "STR", Orderer: pack.STR{}},
		{Name: "HS", Orderer: pack.HS{}},
		{Name: "NX", Orderer: pack.NX{}},
	}
	for _, paperSize := range []int{25000, 100000} {
		r := cfg.size(paperSize)
		entries := uniform3D(r, cfg.Seed)
		for _, side := range []float64{0.1, 0.3} {
			qs := cubes(cfg.Queries, side, cfg.Seed+200)
			var acc [3]float64
			for ai, alg := range algs {
				pool := buffer.NewPool(storage.NewMemPager(4096), cfg.bufPages(50))
				tr, err := rtree.Create(pool, rtree.Config{Dims: 3, Capacity: capacity})
				if err != nil {
					return nil, err
				}
				cp := make([]node.Entry, len(entries))
				copy(cp, entries)
				if err := tr.BulkLoad(cp, alg.Orderer); err != nil {
					return nil, err
				}
				a, err := AvgAccesses(tr, qs)
				if err != nil {
					return nil, err
				}
				acc[ai] = a
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", r), fmt.Sprintf("%.1f", side),
				f2(acc[0]), f2(acc[1]), f2(acc[2]),
				ratio(acc[1], acc[0]), ratio(acc[2], acc[0]),
			})
		}
	}
	return t, nil
}

func uniform3D(r int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]node.Entry, r)
	for i := range out {
		p := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		out[i] = node.Entry{Rect: geom.PointRect(p), Ref: uint64(i)}
	}
	return out
}

func cubes(n int, side float64, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		lo := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		hi := geom.Point{min1(lo[0] + side), min1(lo[1] + side), min1(lo[2] + side)}
		out[i] = geom.Rect{Min: lo, Max: hi}
	}
	return out
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// ExtDynamic quantifies the paper's motivation: one-at-a-time loading
// (Guttman's insertion with the default tile split) versus STR packing, on
// space utilization and query accesses.
func ExtDynamic(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Extension Dynamic",
		Title:  "Packed (STR) vs Dynamic (Guttman) Loading, Density-5 Data, 1% Region Queries",
		Note:   scaleNote(cfg),
		Header: []string{"Data Size", "Build", "Leaf Nodes", "Utilization", "Accesses/Query"},
	}
	qs := query.Regions(cfg.Queries, query.Extent1Pct, cfg.Seed+300)
	for _, paperSize := range []int{25000, 100000} {
		r := cfg.size(paperSize)
		entries := datagen.UniformSquares(r, 5.0, cfg.Seed)
		buf := cfg.bufPages(50)

		packed, err := BuildPacked(entries, pack.STR{}, buf, cfg.Capacity)
		if err != nil {
			return nil, err
		}

		pool := buffer.NewPool(storage.NewMemPager(4096), buf)
		dynamic, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: cfg.Capacity})
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if err := dynamic.Insert(e.Rect, e.Ref); err != nil {
				return nil, err
			}
		}

		for _, tc := range []struct {
			name string
			tr   *rtree.Tree
		}{{"STR pack", packed}, {"Guttman", dynamic}} {
			perLevel, err := tc.tr.NodesPerLevel()
			if err != nil {
				return nil, err
			}
			leaves := perLevel[len(perLevel)-1]
			acc, err := AvgAccesses(tc.tr, qs)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", r), tc.name,
				fmt.Sprintf("%d", leaves),
				fmt.Sprintf("%.1f%%", 100*float64(r)/float64(leaves*cfg.Capacity)),
				f2(acc),
			})
		}
	}
	return t, nil
}

// ExtWarmup traces the LRU warm-up transient the paper's methodology
// accounts for (it cites Bhide, Dan & Dias on exactly this effect): mean
// disk accesses per point query over successive windows of the batch,
// starting from a cold buffer, for LRU and its Clock approximation. The LRU
// column is the pool's own miss count; the Clock column replays the same
// recorded fetch sequence through trace.SimulateClock, a window's misses
// being the difference between two prefixes of the trace.
func ExtWarmup(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Extension Warm-up",
		Title:  "Buffer Warm-up: Accesses per Point Query by Batch Window, Uniform Data",
		Note:   scaleNote(cfg),
		Header: []string{"Query Window", "LRU", "Clock", "Clock/LRU"},
	}
	r := cfg.size(100000)
	buf := cfg.bufPages(250)
	qs := query.Points(cfg.Queries, cfg.Seed+500)
	win := max(len(qs)/5, 1)
	tr, err := BuildPacked(datagen.UniformPoints(r, cfg.Seed), pack.STR{}, buf, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	pool := tr.Pool() // cold, counters zeroed
	var rec trace.Recorder
	pool.SetTracer(rec.Observe)
	var lruPrev, clockPrev int
	for start := 0; start < len(qs); start += win {
		end := min(start+win, len(qs))
		for _, q := range qs[start:end] {
			if err := tr.Search(q, func(node.Entry) bool { return true }); err != nil {
				return nil, err
			}
		}
		lruSoFar, clockSoFar := int(pool.Stats().DiskReads), rec.Trace().SimulateClock(buf)
		lru := float64(lruSoFar-lruPrev) / float64(end-start)
		clock := float64(clockSoFar-clockPrev) / float64(end-start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d-%d", start+1, start+win), f2(lru), f2(clock), ratio(clock, lru),
		})
		lruPrev, clockPrev = lruSoFar, clockSoFar
	}
	return t, nil
}

// ExtModel compares the Kamel-Faloutsos analytical access model (no
// buffering) against measured buffer misses across buffer sizes. The
// model should track the measured numbers closely at tiny buffers and
// overshoot increasingly as the buffer absorbs re-accesses — the paper's
// argument for measuring with buffers instead of trusting geometry.
func ExtModel(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Extension Cost Model",
		Title:  "Analytical Expected Accesses vs Measured, STR, Density-5 Data, 1% Region Queries",
		Note:   scaleNote(cfg),
		Header: []string{"Buffer Size", "Model (no buffer)", "Measured", "Measured/Model"},
	}
	r := cfg.size(100000)
	entries := datagen.UniformSquares(r, 5.0, cfg.Seed)
	qs := query.Regions(cfg.Queries, query.Extent1Pct, cfg.Seed+600)
	for _, pb := range []int{10, 50, 250, 1000} {
		buf := cfg.bufPages(pb)
		tr, err := BuildPacked(entries, pack.STR{}, buf, cfg.Capacity)
		if err != nil {
			return nil, err
		}
		model, err := metrics.ExpectedAccesses(tr, []float64{query.Extent1Pct, query.Extent1Pct})
		if err != nil {
			return nil, err
		}
		measured, err := AvgAccesses(tr, qs)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", buf), f2(model), f2(measured), ratio(measured, model),
		})
	}
	return t, nil
}

// ExtSplits measures what forced reinsertion buys a pure-insert load: leaf
// count and query accesses for the tile cut alone and with ForcedReinsert. The
// splits the tile cut displaced — Guttman's linear and quadratic, then R* —
// are on record in EXPERIMENTS.md, "Extension experiments".
func ExtSplits(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Extension Splits",
		Title:  "Dynamic Overflow Handling, Density-5 Data, 1% Region Queries",
		Note:   scaleNote(cfg),
		Header: []string{"Data Size", "Overflow", "Leaf Nodes", "Accesses/Query"},
	}
	qs := query.Regions(cfg.Queries, query.Extent1Pct, cfg.Seed+400)
	r := cfg.size(25000)
	entries := datagen.UniformSquares(r, 5.0, cfg.Seed)
	buf := cfg.bufPages(50)
	for _, c := range []struct {
		name     string
		reinsert bool
	}{{"tile", false}, {"tile + reinsert", true}} {
		pool := buffer.NewPool(storage.NewMemPager(4096), buf)
		tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: cfg.Capacity, ForcedReinsert: c.reinsert})
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if err := tr.Insert(e.Rect, e.Ref); err != nil {
				return nil, err
			}
		}
		perLevel, err := tr.NodesPerLevel()
		if err != nil {
			return nil, err
		}
		acc, err := AvgAccesses(tr, qs)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r), c.name,
			fmt.Sprintf("%d", perLevel[len(perLevel)-1]),
			f2(acc),
		})
	}
	return t, nil
}
