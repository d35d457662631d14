// Command strbench regenerates the tables and figures of the STR paper's
// evaluation section.
//
// Usage:
//
//	strbench [-exp table2,fig9|all] [-scale 0.2] [-queries 500] [-full] [-seed 1]
//	strbench -ci BENCH_CI.json [-baseline BENCH_BASELINE.json]
//	strbench -replay slow.jsonl -idx index.str [-buffer 256] [-k 10]
//	strbench -plot 2,3,4,5,6|all [-o .] [-seed 1] [-n 0]
//
// Each experiment prints the same rows the paper reports (figures are
// emitted as their data series). By default the suite runs at one fifth of
// the paper's data and buffer sizes so it finishes in minutes; -full uses
// the paper's exact configuration (hundreds of millions of page requests —
// expect a long run).
//
// -ci runs a fixed deterministic experiment slice and writes the results
// as JSON; with -baseline it compares against a committed report and exits
// non-zero on any access-count drift (see ci.go).
//
// -replay re-executes a slow-query capture (strserve -slowlog-json)
// against an index file and reports per-op counts, latency percentiles
// and buffer-pool access counts — the offline half of the capture-replay
// loop (see replay.go).
//
// -plot renders the paper's Figures 2-6 as SVG files into -o instead
// (see plot.go).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"strtree/internal/experiments"
	"strtree/internal/par"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids (e.g. table2,fig9) or 'all'")
		scale   = flag.Float64("scale", 0.2, "fraction of the paper's data and buffer sizes")
		queries = flag.Int("queries", 500, "queries per experiment (paper: 2000)")
		full    = flag.Bool("full", false, "run the paper's exact configuration (overrides -scale/-queries)")
		seed    = flag.Int64("seed", 1, "random seed for data and queries")
		format  = flag.String("format", "table", "output format: table or csv")
		jobs    = flag.Int("j", 1, "experiments to run concurrently")
		list    = flag.Bool("list", false, "list available experiments and exit")

		ci       = flag.String("ci", "", "write a deterministic benchmark report (JSON) to this file and exit")
		baseline = flag.String("baseline", "", "with -ci: compare the report against this baseline, exit 1 on drift")

		replay    = flag.String("replay", "", "replay a strserve -slowlog-json capture against -idx and report per-op cost")
		replayIdx = flag.String("idx", "", "with -replay: index file to replay against")
		bufPages  = flag.Int("buffer", 256, "with -replay: buffer pool pages")
		bufShards = flag.Int("bufshards", 1, "with -replay: buffer pool shards")
		replayK   = flag.Int("k", 0, "with -replay: override k for nearest records (0 keeps the captured k)")

		plot    = flag.String("plot", "", "render the paper's figures as SVG instead of the suite: 2,3,4,5,6 or all")
		plotDir = flag.String("o", ".", "with -plot: output directory")
		n       = flag.Int("n", 0, "with -plot: entries of each data set (0 = the paper's sizes)")
	)
	flag.Parse()

	if *replay != "" {
		err := runReplay(os.Stdout, *replay, replayConfig{
			idx:      *replayIdx,
			bufPages: *bufPages,
			shards:   *bufShards,
			k:        *replayK,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "strbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *plot != "" {
		if err := runPlot(*plot, *plotDir, *seed, *n); err != nil {
			fmt.Fprintf(os.Stderr, "strbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *ci != "" {
		if err := runCI(*ci, *baseline); err != nil {
			fmt.Fprintf(os.Stderr, "strbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Queries: *queries, Capacity: 100, Seed: *seed}
	if *full {
		cfg = experiments.Full()
		cfg.Seed = *seed
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	// Validate up front so a typo fails before any long run starts.
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		runner, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "strbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		runners[i] = runner
	}

	// Run -j at a time, each result kept at its index and printed in
	// request order once all have run.
	type result struct {
		table   *experiments.Table
		err     error
		elapsed time.Duration
	}
	results := make([]result, len(ids))
	_ = par.Each(len(ids), *jobs, func(_, i int) error { // each error is kept in results[i]
		start := time.Now()
		table, err := runners[i](cfg)
		results[i] = result{table: table, err: err, elapsed: time.Since(start)}
		return nil
	})

	for i, id := range ids {
		res := results[i]
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "strbench: %s: %v\n", id, res.err)
			os.Exit(1)
		}
		table := res.table
		switch *format {
		case "csv":
			fmt.Printf("# %s: %s\n", table.ID, table.Title)
			if err := table.FprintCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "strbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		case "table":
			if err := table.Fprint(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "strbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("   [%s completed in %v]\n\n", id, res.elapsed.Round(time.Millisecond))
		default:
			fmt.Fprintf(os.Stderr, "strbench: unknown format %q\n", *format)
			os.Exit(2)
		}
	}
}
