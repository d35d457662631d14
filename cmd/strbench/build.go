package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"slices"
	"text/tabwriter"
	"time"

	"strtree/internal/buffer"
	"strtree/internal/datagen"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// buildConfig parameterizes the -build mode: bulk-load throughput sweeps
// over worker counts, for the in-memory STR path and the external
// (bounded-memory) STR path, with a per-phase breakdown and a checksum
// proving the packed trees are byte-identical at every worker count.
type buildConfig struct {
	N        int   // entries for the in-memory sweep
	ExtN     int   // entries for the external sweep (0 skips it)
	RunSize  int   // external sort run size
	Capacity int   // node capacity (the paper's n)
	Workers  []int // worker counts to sweep
	Seed     int64
}

// treeChecksum hashes every page of the pager — the whole packed tree,
// metadata included — so two builds compare byte for byte.
func treeChecksum(pg storage.Pager) (uint64, error) {
	h := fnv.New64a()
	buf := make([]byte, pg.PageSize())
	for id := 0; id < pg.NumPages(); id++ {
		if err := pg.ReadPage(storage.PageID(id), buf); err != nil {
			return 0, err
		}
		if _, err := h.Write(buf); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}

// buildResult is one row of a sweep.
type buildResult struct {
	workers  int
	wall     time.Duration
	sort     time.Duration
	tile     time.Duration
	write    time.Duration
	checksum uint64
}

func fmtRate(n int, wall time.Duration) string {
	return fmt.Sprintf("%.2f", float64(n)/wall.Seconds()/1e6)
}

func printSweep(w io.Writer, n int, rs []buildResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\twall\tMentries/s\tspeedup\tsort\ttile\twrite\tchecksum")
	base := rs[0].wall.Seconds()
	for _, r := range rs {
		fmt.Fprintf(tw, "%d\t%v\t%s\t%.2fx\t%v\t%v\t%v\t%016x\n",
			r.workers, r.wall.Round(time.Millisecond), fmtRate(n, r.wall),
			base/r.wall.Seconds(),
			r.sort.Round(time.Millisecond), r.tile.Round(time.Millisecond),
			r.write.Round(time.Millisecond), r.checksum)
	}
	tw.Flush()
}

// checkIdentical fails the run if any worker count produced different
// tree bytes — the determinism guarantee the CI smoke asserts via this
// command's exit code.
func checkIdentical(rs []buildResult) error {
	for _, r := range rs[1:] {
		if r.checksum != rs[0].checksum {
			return fmt.Errorf("tree checksum mismatch: workers=%d gave %016x, workers=%d gave %016x",
				rs[0].workers, rs[0].checksum, r.workers, r.checksum)
		}
	}
	return nil
}

// sweep runs load once per worker count on a fresh in-memory tree and
// returns one row per count; load times itself (set-up excluded) and fills
// in the phase split it knows.
func sweep(cfg buildConfig, workers []int, load func(tr *rtree.Tree, workers int, r *buildResult) error) ([]buildResult, error) {
	var results []buildResult
	for _, w := range workers {
		pg := storage.NewMemPager(storage.DefaultPageSize)
		pool := buffer.NewPool(pg, 1024)
		tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: cfg.Capacity, Workers: w})
		if err != nil {
			return nil, err
		}
		r := buildResult{workers: w}
		if err := load(tr, w, &r); err != nil {
			return nil, err
		}
		if r.checksum, err = treeChecksum(pg); err != nil {
			return nil, err
		}
		r.write = tr.LastBuildStats().Write
		results = append(results, r)
	}
	return results, nil
}

// loadInMemory is the in-memory STR build of a copy of entries.
func loadInMemory(entries []node.Entry) func(*rtree.Tree, int, *buildResult) error {
	return func(tr *rtree.Tree, workers int, r *buildResult) error {
		timing := &pack.STRTiming{}
		cp := slices.Clone(entries)
		t0 := time.Now()
		err := tr.BulkLoad(cp, pack.STR{Workers: workers, Timing: timing})
		r.wall = time.Since(t0)
		r.sort = time.Duration(timing.SortNanos.Load())
		r.tile = time.Duration(timing.TileNanos.Load())
		return err
	}
}

// runBuildBench sweeps the worker counts over the in-memory STR build and
// (when cfg.ExtN > 0) the external STR build, reporting throughput, the
// sort/tile/write phase split, and the tree checksum per worker count.
func runBuildBench(w io.Writer, cfg buildConfig) error {
	entries := datagen.UniformSquares(cfg.N, 5.0, cfg.Seed)
	fmt.Fprintf(w, "== build throughput: in-memory STR, %d entries, capacity %d, GOMAXPROCS=%d ==\n",
		cfg.N, cfg.Capacity, runtime.GOMAXPROCS(0))
	results, err := sweep(cfg, cfg.Workers, loadInMemory(entries))
	if err != nil {
		return err
	}
	printSweep(w, cfg.N, results)
	if err := checkIdentical(results); err != nil {
		return err
	}

	if cfg.ExtN <= 0 {
		return nil
	}
	extEntries := datagen.UniformSquares(cfg.ExtN, 5.0, cfg.Seed+1)
	fmt.Fprintf(w, "\n== build throughput: external STR, %d entries, run size %d, capacity %d ==\n",
		cfg.ExtN, cfg.RunSize, cfg.Capacity)
	// The same wiring strtree.BulkLoadExternal uses.
	extResults, err := sweep(cfg, cfg.Workers, func(tr *rtree.Tree, workers int, r *buildResult) error {
		t0 := time.Now()
		defer func() { r.wall = time.Since(t0) }()
		i, rec := 0, make([]byte, node.EntrySize(2))
		ordered, err := pack.STRExternal{RunSize: cfg.RunSize, Workers: workers}.Open(2, tr.Capacity(),
			func() ([]byte, bool, error) {
				if i == len(extEntries) {
					return nil, false, nil
				}
				node.PutRecord(rec, extEntries[i].Rect, extEntries[i].Ref)
				i++
				return rec, true, nil
			})
		if err != nil {
			return err
		}
		err = tr.BulkLoadOrdered(ordered.Next, pack.STR{Workers: workers})
		return errors.Join(err, ordered.Close())
	})
	if err != nil {
		return err
	}
	// The external path has no sort/tile split (ordering happens inside
	// the external merge sorts), so those columns read as zero.
	printSweep(w, cfg.ExtN, extResults)
	if err := checkIdentical(extResults); err != nil {
		return err
	}
	// The external builder must write the tree the in-memory builder
	// writes from the same entries, not merely the same tree every time.
	ref, err := sweep(cfg, cfg.Workers[:1], loadInMemory(extEntries))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "in-memory STR build of the same %d entries: checksum %016x\n", cfg.ExtN, ref[0].checksum)
	if ext := extResults[0].checksum; ext != ref[0].checksum {
		return fmt.Errorf("tree checksum mismatch: external build gave %016x, in-memory build gave %016x", ext, ref[0].checksum)
	}
	return nil
}
