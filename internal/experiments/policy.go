package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"strtree/internal/datagen"
	"strtree/internal/geom"
	"strtree/internal/hilbert"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/query"
	"strtree/internal/storage"
	"strtree/internal/trace"
)

func init() {
	Register("extpolicy", ExtPolicy)
	Register("extqorder", ExtQOrder)
	Register("extlevels", ExtLevels)
}

// ExtLevels breaks disk accesses down by tree level across buffer sizes.
// The paper argues the leaf-level area/perimeter metrics matter most
// "since the non-leaf level nodes will likely be buffered" (Section 3);
// this experiment shows that directly: as the buffer grows, the internal
// levels' share of misses collapses first.
func ExtLevels(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Extension Access Levels",
		Title:  "Share of Disk Accesses by Tree Level vs Buffer Size, STR, Point Queries",
		Note:   scaleNote(cfg),
		Header: []string{"Buffer Size", "Accesses/query", "Root+Internal %", "Leaf %"},
	}
	r := cfg.size(100000)
	entries := datagen.UniformPoints(r, cfg.Seed)
	qs := query.Points(cfg.Queries, cfg.Seed+900)
	for _, pb := range []int{10, 50, 250, 1000} {
		buf := cfg.bufPages(pb)
		tr, err := BuildPacked(entries, pack.STR{}, buf, cfg.Capacity)
		if err != nil {
			return nil, err
		}
		// Map pages to levels.
		leafPage := map[storage.PageID]bool{}
		if err := tr.Walk(func(id storage.PageID, v node.View) bool {
			leafPage[id] = v.IsLeaf()
			return true
		}); err != nil {
			return nil, err
		}
		if err := tr.Pool().Invalidate(); err != nil {
			return nil, err
		}
		tr.Pool().ResetStats()
		var internal, leaf int
		tr.Pool().SetTracer(func(id storage.PageID, hit bool) {
			if hit {
				return
			}
			if leafPage[id] {
				leaf++
			} else {
				internal++
			}
		})
		for _, q := range qs {
			if err := tr.Search(q, func(node.Entry) bool { return true }); err != nil {
				return nil, err
			}
		}
		tr.Pool().SetTracer(nil)
		total := internal + leaf
		pct := func(v int) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(v)/float64(total))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", buf),
			f2(float64(total) / float64(len(qs))),
			pct(internal), pct(leaf),
		})
	}
	return t, nil
}

// ExtPolicy records the page-access trace of the paper's 1%-region
// workload on an STR tree once, then replays it against simulated LRU,
// Clock and Belady-optimal buffers across the paper's buffer sizes — the
// complete miss-ratio curve from a single measured run, with the
// unbeatable OPT lower bound as context for the paper's LRU numbers.
func ExtPolicy(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Extension Replacement Policy",
		Title:  "Miss-Ratio Curve from One Trace: LRU vs Clock vs Belady OPT, STR, 1% Region Queries",
		Note:   scaleNote(cfg),
		Header: []string{"Buffer Size", "LRU/query", "Clock/query", "OPT/query", "LRU/OPT"},
	}
	r := cfg.size(100000)
	entries := datagen.UniformSquares(r, 5.0, cfg.Seed)
	qs := query.Regions(cfg.Queries, query.Extent1Pct, cfg.Seed+700)

	// Record the access trace with a large pool (the trace is the logical
	// access sequence; pool size does not affect it).
	tr, err := BuildPacked(entries, pack.STR{}, 64, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	var rec trace.Recorder
	tr.Pool().SetTracer(rec.Observe)
	for _, q := range qs {
		if err := tr.Search(q, func(node.Entry) bool { return true }); err != nil {
			return nil, err
		}
	}
	tr.Pool().SetTracer(nil)
	accesses := rec.Trace()

	n := float64(len(qs))
	for _, pb := range []int{10, 25, 50, 100, 250} {
		buf := cfg.bufPages(pb)
		lru := float64(accesses.SimulateLRU(buf)) / n
		clock := float64(accesses.SimulateClock(buf)) / n
		opt := float64(accesses.SimulateOPT(buf)) / n
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", buf), f2(lru), f2(clock), f2(opt), ratio(lru, opt),
		})
	}
	return t, nil
}

// ExtQOrder measures how much the *order* of a query batch matters to a
// small LRU buffer: the same 2,000 region queries issued in random order
// versus sorted along the Hilbert curve of their centers (consecutive
// queries then touch overlapping subtrees). A client that can batch its
// queries gets this locality for free.
func ExtQOrder(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "Extension Query Ordering",
		Title:  "Disk Accesses per Query: Random vs Hilbert-Ordered Query Batch, STR, 1% Region Queries",
		Note:   scaleNote(cfg),
		Header: []string{"Buffer Size", "Random Order", "Hilbert Order", "Hilbert/Random"},
	}
	r := cfg.size(100000)
	entries := datagen.UniformSquares(r, 5.0, cfg.Seed)
	qs := query.Regions(cfg.Queries, query.Extent1Pct, cfg.Seed+800)

	// Hilbert-order a copy of the batch by query centers.
	ordered := append([]geom.Rect(nil), qs...)
	m, err := hilbert.NewMapper(16, []float64{0, 0}, []float64{1, 1})
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, len(ordered))
	for i, q := range ordered {
		keys[i] = m.Key([]float64{q.CenterAxis(0), q.CenterAxis(1)})
	}
	idx := make([]int, len(ordered))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return a - b
	})
	permuted := make([]geom.Rect, len(ordered))
	for i, j := range idx {
		permuted[i] = ordered[j]
	}
	ordered = permuted

	for _, pb := range []int{10, 25, 50, 100} {
		buf := cfg.bufPages(pb)
		tr, err := BuildPacked(entries, pack.STR{}, buf, cfg.Capacity)
		if err != nil {
			return nil, err
		}
		random, err := AvgAccesses(tr, qs)
		if err != nil {
			return nil, err
		}
		hilberted, err := AvgAccesses(tr, ordered)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", buf), f2(random), f2(hilberted), ratio(hilberted, random),
		})
	}
	return t, nil
}
