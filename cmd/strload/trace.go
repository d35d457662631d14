package main

import (
	"flag"
	"fmt"
	"os"
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
//	strload trace record -idx index.str -queries 2000 -extent 0.1 -out q.trace
//	strload trace simulate -trace q.trace -buffers 10,25,50,100,250
//
// Record runs the paper's uniform region queries (extent 0 = point
// queries) against the index and writes the page-access sequence.
// Simulate prints the per-query miss counts of LRU, Clock and Belady's
// optimal policy at each buffer size; OPT is the unbeatable offline lower
// bound.
func runTrace(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return runRecord(args[1:])
		case "simulate":
			return runSimulate(args[1:])
		}
	}
	return fmt.Errorf("usage: strload trace record|simulate [flags]")
}

func runRecord(args []string) error {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	idx := fs.String("idx", "index.str", "index file to query")
	queries := fs.Int("queries", 2000, "number of queries")
	extent := fs.Float64("extent", 0.1, "query extent per axis (0 = point queries)")
	seed := fs.Int64("seed", 1, "query generator seed")
	out := fs.String("out", "access.trace", "output trace file")
	fs.Parse(args)

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
	qs := query.Regions(*queries, *extent, *seed)
	var rec trace.Recorder
	pool.SetTracer(rec.Observe)
	for _, q := range qs {
		if err := tree.Search(q, func(node.Entry) bool { return true }); err != nil {
			return err
		}
	}
	pool.SetTracer(nil)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := rec.Trace().Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d page accesses from %d queries into %s\n",
		len(rec.Trace()), len(qs), *out)
	return nil
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("trace simulate", flag.ExitOnError)
	in := fs.String("trace", "access.trace", "trace file from 'strload trace record'")
	buffers := fs.String("buffers", "10,25,50,100,250", "comma-separated buffer sizes in pages")
	queries := fs.Int("queries", 0, "queries the trace covers (0 = report totals, not per-query)")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	tr, err := trace.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	div := 1.0
	unit := "misses"
	if *queries > 0 {
		div = float64(*queries)
		unit = "misses/query"
	}
	fmt.Printf("trace: %d accesses, %d distinct pages\n\n", len(tr), tr.Distinct())
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "buffer\tLRU %s\tClock %s\tOPT %s\tLRU/OPT\n", unit, unit, unit)
	for _, s := range strings.Split(*buffers, ",") {
		capacity, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || capacity < 1 {
			return fmt.Errorf("bad buffer size %q", s)
		}
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
