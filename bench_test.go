// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the STR paper (each runs the corresponding experiment at a
// reduced scale and reports the key access counts as custom metrics), plus
// the ablation benchmarks DESIGN.md §1 calls out. Run with
//
//	go test -bench=. -benchmem
//
// For paper-scale numbers use cmd/strbench -full instead; benchmarks stay
// small so the whole suite finishes in minutes.
package strtree_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"strtree"
	"strtree/internal/buffer"
	"strtree/internal/datagen"
	"strtree/internal/experiments"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/query"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// benchCfg is the reduced scale used by every per-table benchmark.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.05, Queries: 100, Capacity: 100, Seed: 1}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkFig7(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)   { benchExperiment(b, "fig12") }

// accessesPerQuery builds a packed tree over entries behind bufPages of
// LRU and measures mean disk accesses for the workload.
func accessesPerQuery(b *testing.B, entries []node.Entry, o rtree.Orderer, capacity, bufPages int, qs []strtree.Rect) float64 {
	b.Helper()
	tr, err := experiments.BuildPacked(entries, o, bufPages, capacity)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := experiments.AvgAccesses(tr, qs)
	if err != nil {
		b.Fatal(err)
	}
	return acc
}

// BenchmarkAblationPackers compares every packing order on uniform
// density-5 data with 1% region queries and a small buffer.
func BenchmarkAblationPackers(b *testing.B) {
	b.ReportAllocs()
	entries := datagen.UniformSquares(20000, 5.0, 1)
	qs := query.Regions(200, query.Extent1Pct, 2)
	orders := []rtree.Orderer{pack.STR{}, pack.HS{}, pack.NX{}, pack.TGS{}}
	for _, o := range orders {
		b.Run(o.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = accessesPerQuery(b, entries, o, 100, 10, qs)
			}
			b.ReportMetric(acc, "accesses/query")
		})
	}
}

// BenchmarkAblationFanout varies node capacity (the paper fixes n = 100
// and notes most R-trees use 25-100).
func BenchmarkAblationFanout(b *testing.B) {
	b.ReportAllocs()
	entries := datagen.UniformSquares(20000, 5.0, 1)
	qs := query.Regions(200, query.Extent1Pct, 2)
	for _, capacity := range []int{25, 50, 100} {
		b.Run(strconv.Itoa(capacity), func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = accessesPerQuery(b, entries, pack.STR{}, capacity, 10, qs)
			}
			b.ReportMetric(acc, "accesses/query")
		})
	}
}

// BenchmarkPackedVsDynamic measures the paper's motivating comparison:
// bulk loading versus Guttman insertion, on build time and query I/O.
func BenchmarkPackedVsDynamic(b *testing.B) {
	b.ReportAllocs()
	entries := datagen.UniformSquares(10000, 5.0, 1)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: e.Rect, ID: e.Ref}
	}
	qs := query.Regions(200, query.Extent1Pct, 2)

	b.Run("build/packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := strtree.New(strtree.Options{Capacity: 100})
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build/dynamic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := strtree.New(strtree.Options{Capacity: 100, BufferPages: 2048})
			if err != nil {
				b.Fatal(err)
			}
			for _, it := range items {
				if err := tree.Insert(it.Rect, it.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	queryBench := func(b *testing.B, tree *strtree.Tree) {
		var acc float64
		for i := 0; i < b.N; i++ {
			if err := tree.DropCaches(); err != nil {
				b.Fatal(err)
			}
			tree.ResetStats()
			for _, q := range qs {
				if _, err := tree.Count(q); err != nil {
					b.Fatal(err)
				}
			}
			acc = float64(tree.Stats().DiskReads) / float64(len(qs))
		}
		b.ReportMetric(acc, "accesses/query")
	}
	b.Run("query/packed", func(b *testing.B) {
		b.ReportAllocs()
		tree, err := strtree.New(strtree.Options{Capacity: 100, BufferPages: 10})
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
			b.Fatal(err)
		}
		queryBench(b, tree)
	})
	b.Run("query/dynamic", func(b *testing.B) {
		b.ReportAllocs()
		tree, err := strtree.New(strtree.Options{Capacity: 100, BufferPages: 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			if err := tree.Insert(it.Rect, it.ID); err != nil {
				b.Fatal(err)
			}
		}
		queryBench(b, tree)
	})
}

// BenchmarkExternalBulkLoad measures the bounded-memory STR build against
// the in-memory build on the same input.
func BenchmarkExternalBulkLoad(b *testing.B) {
	b.ReportAllocs()
	entries := datagen.UniformSquares(50000, 5.0, 1)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: e.Rect, ID: e.Ref}
	}
	b.Run("in-memory", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := strtree.New(strtree.Options{Capacity: 100})
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.BulkLoad(append([]strtree.Item(nil), items...), strtree.PackSTR); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("external", func(b *testing.B) {
		b.ReportAllocs()
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			tree, err := strtree.New(strtree.Options{Capacity: 100})
			if err != nil {
				b.Fatal(err)
			}
			j := 0
			src := func() (strtree.Item, bool) {
				if j >= len(items) {
					return strtree.Item{}, false
				}
				it := items[j]
				j++
				return it, true
			}
			if err := tree.BulkLoadExternal(src, strtree.ExternalOptions{RunSize: 8192, TmpDir: dir}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensions runs the beyond-the-paper experiments.
func BenchmarkExtensions(b *testing.B) {
	for _, id := range experiments.ExtensionIDs() {
		b.Run(id, func(b *testing.B) { benchExperiment(b, id) })
	}
}

// BenchmarkBuild measures end-to-end bulk-load throughput — parallel
// sort, tiling and write-behind page emission — through the in-memory STR
// pipeline. Run with -cpu 1,4,8 to see worker scaling; the tree bytes are
// identical at every width.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	entries := datagen.UniformSquares(200000, 5.0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workers := runtime.GOMAXPROCS(0)
		pool := buffer.NewPool(storage.NewMemPager(storage.DefaultPageSize), 1024)
		tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: 100, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		cp := make([]node.Entry, len(entries))
		copy(cp, entries)
		if err := tr.BulkLoad(cp, pack.STR{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(entries))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mentries/s")
}

// BenchmarkBulkLoad500k is the ledger's build workload as a go test
// benchmark: Create on a file, BulkLoad(PackSTR) of 500 000 uniform squares
// at Workers: 2, Close — the public API end to end, the checked Item ->
// record encoding, the sort, the packing, the write-behind and the file
// included. check.sh runs it once so it cannot rot; nightly.yml times it.
func BenchmarkBulkLoad500k(b *testing.B) {
	entries := datagen.UniformSquares(500000, 5.0, 1)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: strtree.Rect(e.Rect), ID: e.Ref}
	}
	path := filepath.Join(b.TempDir(), "build.str")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := strtree.Create(path, strtree.Options{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
			b.Fatal(err)
		}
		if err := tree.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkMutateChurn is the ledger's mutate workload in small, through the
// public API: an STR-packed file of 100 000 unit-density squares reopened
// behind a warm 1 024-page pool, then a shuffled tape of a quarter inserts, a
// quarter deletes of random live items and half reads (points and windows of
// side 0.01), flushed every 8 192 ops. Every op is timed: besides the mean it
// reports the worst op and the share of mutations that rebuilt a node, the
// numbers the default split policy is answerable for. check.sh runs it once
// so it cannot rot; nightly.yml times it.
func BenchmarkMutateChurn(b *testing.B) {
	const items, ops, flushEvery = 100000, 32768, 8192
	type churnOp struct {
		kind byte // 'i', 'd', or a read: 'p', 'r'
		item strtree.Item
	}
	rng := rand.New(rand.NewSource(24))
	square := func(id uint64) strtree.Item {
		x, y := rng.Float64(), rng.Float64()
		side := math.Sqrt(rng.Float64() * 2 / items)
		return strtree.Item{Rect: strtree.R2(x, y, math.Min(x+side, 1), math.Min(y+side, 1)), ID: id}
	}
	live := make([]strtree.Item, items)
	for i := range live {
		live[i] = square(uint64(i))
	}
	dir := b.TempDir()
	base, work := filepath.Join(dir, "base.str"), filepath.Join(dir, "work.str")
	tree, err := strtree.Create(base, strtree.Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.BulkLoad(live, strtree.PackSTR); err != nil {
		b.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		b.Fatal(err)
	}
	image, err := os.ReadFile(base)
	if err != nil {
		b.Fatal(err)
	}
	tape := make([]churnOp, ops)
	for i := range tape {
		tape[i].kind = "idpr"[i*4/ops]
	}
	rng.Shuffle(ops, func(i, j int) { tape[i], tape[j] = tape[j], tape[i] })
	for i := range tape {
		switch o := &tape[i]; o.kind {
		case 'i':
			o.item = square(uint64(items + i))
			live = append(live, o.item)
		case 'd':
			j := rng.Intn(len(live))
			o.item, live[j] = live[j], live[len(live)-1]
			live = live[:len(live)-1]
		case 'p':
			x, y := rng.Float64(), rng.Float64()
			o.item.Rect = strtree.R2(x, y, x, y)
		default:
			x, y := rng.Float64(), rng.Float64()
			o.item.Rect = strtree.R2(x, y, math.Min(x+0.01, 1), math.Min(y+0.01, 1))
		}
	}

	var total, worst time.Duration
	var stats strtree.MutatePathStats
	sink := func(strtree.Item) bool { return true }
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		if err := os.WriteFile(work, image, 0o644); err != nil {
			b.Fatal(err)
		}
		tree, err := strtree.Open(work, strtree.Options{BufferPages: 1024})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tree.Count(strtree.R2(0, 0, 1, 1)); err != nil { // every page into the pool
			b.Fatal(err)
		}
		b.StartTimer()
		for i, o := range tape {
			found, t0 := true, time.Now()
			switch o.kind {
			case 'i':
				err = tree.Insert(o.item.Rect, o.item.ID)
			case 'd':
				found, err = tree.Delete(o.item.Rect, o.item.ID)
			default:
				err = tree.Search(o.item.Rect, sink)
			}
			d := time.Since(t0)
			total, worst = total+d, max(worst, d)
			if err != nil || !found {
				b.Fatalf("op %d (%c): found %v, err %v", i, o.kind, found, err)
			}
			if (i+1)%flushEvery == 0 {
				if err := tree.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		stats = tree.MutatePathStats()
		if err := tree.Close(); err != nil {
			b.Fatal(err)
		}
	}
	structural := stats.StructuralInserts + stats.StructuralDeletes
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*ops)/1e3, "us/op")
	b.ReportMetric(float64(worst.Nanoseconds())/1e3, "worst-us")
	b.ReportMetric(float64(structural)/float64(structural+stats.InPlaceInserts+stats.InPlaceDeletes), "structural-share")
	b.ReportMetric(float64(stats.StructuralDeletes), "dissolves")
}

// BenchmarkBuildExternal measures the bounded-memory pipeline: concurrent
// run generation and spilling, merge read-ahead, and write-behind leaves.
// Run with -cpu 1,4,8.
func BenchmarkBuildExternal(b *testing.B) {
	b.ReportAllocs()
	entries := datagen.UniformSquares(100000, 5.0, 1)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: strtree.Rect(e.Rect), ID: e.Ref}
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := strtree.New(strtree.Options{Capacity: 100})
		if err != nil {
			b.Fatal(err)
		}
		j := 0
		src := func() (strtree.Item, bool) {
			if j >= len(items) {
				return strtree.Item{}, false
			}
			it := items[j]
			j++
			return it, true
		}
		if err := tree.BulkLoadExternal(src, strtree.ExternalOptions{RunSize: 1 << 14, TmpDir: dir}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mentries/s")
}

// BenchmarkParallelSTR measures the goroutine-parallel STR sort, the
// parallel direction the paper's conclusion proposes.
func BenchmarkParallelSTR(b *testing.B) {
	b.ReportAllocs()
	entries := datagen.UniformSquares(200000, 5.0, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			work := make([]node.Entry, len(entries))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, entries)
				pack.STR{Workers: workers}.Order(work, 100, 0)
			}
		})
	}
}

// concurrentBenchTree builds the shared fixture for the concurrent-query
// benchmarks: a packed 50k-entry tree behind a buffer of the given shard
// count, with a warm start so the steady-state hit/miss mix is measured.
func concurrentBenchTree(b *testing.B, shards int, qs []strtree.Rect) *strtree.Tree {
	b.Helper()
	entries := datagen.UniformSquares(50000, 5.0, 1)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: e.Rect, ID: e.Ref}
	}
	tree, err := strtree.New(strtree.Options{Capacity: 100, BufferPages: 256, BufferShards: shards})
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		b.Fatal(err)
	}
	if err := tree.DropCaches(); err != nil {
		b.Fatal(err)
	}
	if _, err := tree.SearchBatchCount(qs, 1); err != nil {
		b.Fatal(err)
	}
	tree.ResetStats()
	return tree
}

// BenchmarkConcurrentQuery measures parallel query throughput through one
// shared tree and buffer; one op is one region query. Run with
// -cpu 1,4,8 to see scaling: the sharded variants keep scaling with
// GOMAXPROCS while shards=1 serializes every page fetch behind a single
// buffer mutex. Each parallel goroutine walks the query set from its own
// offset so concurrent workers touch different subtrees, like independent
// clients would.
func BenchmarkConcurrentQuery(b *testing.B) {
	b.ReportAllocs()
	qs := query.Regions(512, query.Extent1Pct, 2)
	for _, shards := range []int{1, 8, 32} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			b.ReportAllocs()
			tree := concurrentBenchTree(b, shards, qs)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(int64(len(qs) / 8)))
				for pb.Next() {
					q := qs[i%len(qs)]
					i++
					if err := tree.Search(q, func(strtree.Item) bool { return true }); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if n := tree.Stats().LogicalReads; n > 0 {
				b.ReportMetric(float64(tree.Stats().DiskReads)/float64(b.N), "accesses/query")
			}
		})
	}
}

// BenchmarkConcurrentQueryBatch measures the BatchExecutor end to end: one
// op is a 256-query batch fanned across GOMAXPROCS workers. Run with
// -cpu 1,4,8.
func BenchmarkConcurrentQueryBatch(b *testing.B) {
	b.ReportAllocs()
	qs := query.Regions(256, query.Extent1Pct, 3)
	for _, shards := range []int{1, 16} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			b.ReportAllocs()
			tree := concurrentBenchTree(b, shards, qs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.SearchBatchCount(qs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSTR3D exercises the k > 2 generalization of Section 2.2.
func BenchmarkSTR3D(b *testing.B) {
	b.ReportAllocs()
	rngEntries := make([]node.Entry, 0, 50000)
	base := datagen.UniformPoints(50000, 1)
	// Lift 2-D points into 3-D with a z coordinate derived from the index.
	for i, e := range base {
		z := float64(i%1000) / 1000
		r := strtree.Rect{
			Min: strtree.Point{e.Rect.Min[0], e.Rect.Min[1], z},
			Max: strtree.Point{e.Rect.Max[0], e.Rect.Max[1], z},
		}
		rngEntries = append(rngEntries, node.Entry{Rect: r, Ref: e.Ref})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := buffer.NewPool(storage.NewMemPager(4096), 1024)
		tr, err := rtree.Create(pool, rtree.Config{Dims: 3, Capacity: 72})
		if err != nil {
			b.Fatal(err)
		}
		cp := make([]node.Entry, len(rngEntries))
		copy(cp, rngEntries)
		if err := tr.BulkLoad(cp, pack.STR{}); err != nil {
			b.Fatal(err)
		}
	}
}
