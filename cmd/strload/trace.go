package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"strtree/internal/buffer"
	"strtree/internal/node"
	"strtree/internal/query"
	"strtree/internal/rtree"
	"strtree/internal/storage"
	"strtree/internal/trace"
)

// runTrace is the trace-driven analysis behind the extpolicy experiment,
// over an index file:
//
//	strload trace -idx index.str -queries 2000 -extent 0.1 -buffers 10,25,50,100,250
//
// It runs the paper's uniform region queries (extent 0 = point queries)
// against the index, records the page-access sequence, and prints the
// per-query miss counts of LRU, Clock and Belady's optimal policy over it
// at each buffer size; OPT is the unbeatable offline lower bound.
func runTrace(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	idx := fs.String("idx", "index.str", "index file to query")
	queries := fs.Int("queries", 2000, "number of queries")
	extent := fs.Float64("extent", 0.1, "query extent per axis (0 = point queries)")
	seed := fs.Int64("seed", 1, "query generator seed")
	buffers := fs.String("buffers", "10,25,50,100,250", "comma-separated buffer sizes in pages")
	fs.Parse(args)

	if *queries < 1 {
		return fmt.Errorf("-queries %d: want at least 1", *queries)
	}
	var capacities []int
	for _, s := range strings.Split(*buffers, ",") {
		capacity, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || capacity < 1 {
			return fmt.Errorf("bad buffer size %q", s)
		}
		capacities = append(capacities, capacity)
	}

	pg, err := storage.OpenFilePager(*idx, storage.DefaultPageSize)
	if err != nil {
		return err
	}
	//strlint:ignore droppederr read-only pager: a close error after queries cannot lose data
	defer pg.Close()
	pool := buffer.NewPool(pg, 8)
	tree, err := rtree.Open(pool)
	if err != nil {
		return err
	}

	// At extent 0 these are the points query.Points draws.
	var rec trace.Recorder
	pool.SetTracer(rec.Observe)
	for _, q := range query.Regions(*queries, *extent, *seed) {
		if err := tree.Search(q, func(node.Entry) bool { return true }); err != nil {
			return err
		}
	}
	pool.SetTracer(nil)

	tr := rec.Trace()
	fmt.Fprintf(w, "trace: %d accesses, %d distinct pages\n\n", len(tr), tr.Distinct())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "buffer\tLRU misses/query\tClock misses/query\tOPT misses/query\tLRU/OPT\n")
	div := float64(*queries)
	for _, capacity := range capacities {
		lru := float64(tr.SimulateLRU(capacity)) / div
		clock := float64(tr.SimulateClock(capacity)) / div
		opt := float64(tr.SimulateOPT(capacity)) / div
		ratio := "-"
		if opt > 0 {
			ratio = fmt.Sprintf("%.2f", lru/opt)
		}
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\t%s\n", capacity, lru, clock, opt, ratio)
	}
	return tw.Flush()
}
