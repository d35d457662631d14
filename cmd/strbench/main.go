// Command strbench regenerates the tables and figures of the STR paper's
// evaluation section.
//
// Usage:
//
//	strbench [-exp table2,fig9|all] [-scale 0.2] [-queries 500] [-full] [-seed 1]
//	strbench -concurrency [-workers 1,2,4,8] [-shards 8] [-scale 0.2] [-queries 500] [-concurrency-out sweep.json]
//	strbench -build [-n 1000000] [-extn 200000] [-runsize 65536] [-workers 1,2,4,8]
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
// -concurrency benchmarks the concurrent query path instead: it builds one
// packed tree over a sharded buffer and sweeps the batch executor's worker
// count, reporting throughput, scaling and accesses per query.
//
// -build benchmarks the bulk-load pipeline instead: it sweeps the worker
// count over an in-memory STR build and an external (bounded-memory) STR
// build, reporting entries/sec, the sort/tile/write phase split, and a
// checksum over the packed tree's pages — the run exits non-zero if any
// worker count produces different tree bytes.
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
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"strtree/internal/experiments"
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
		trials  = flag.Int("trials", 1, "trials to average per experiment (different seeds)")
		list    = flag.Bool("list", false, "list available experiments and exit")

		concurrency    = flag.Bool("concurrency", false, "run the concurrent query benchmark instead of the paper suite")
		workers        = flag.String("workers", "1,2,4,8", "worker counts to sweep in -concurrency and -build modes (comma-separated)")
		shards         = flag.Int("shards", 8, "buffer shards in -concurrency mode (power of two)")
		concurrencyOut = flag.String("concurrency-out", "", "with -concurrency: also write the sweep as a JSON artifact to this file")

		build   = flag.Bool("build", false, "run the bulk-load throughput benchmark instead of the paper suite")
		n       = flag.Int("n", 0, "entries: of the in-memory sweep in -build mode (0 = 1000000), of each data set in -plot mode (0 = the paper's sizes)")
		extN    = flag.Int("extn", 200000, "entries for the external sweep in -build mode (0 skips it)")
		runSize = flag.Int("runsize", 1<<16, "external sort run size in -build mode")

		ci       = flag.String("ci", "", "write a deterministic benchmark report (JSON) to this file and exit")
		baseline = flag.String("baseline", "", "with -ci: compare the report against this baseline, exit 1 on drift")

		replay    = flag.String("replay", "", "replay a strserve -slowlog-json capture against -idx and report per-op cost")
		replayIdx = flag.String("idx", "", "with -replay: index file to replay against")
		bufPages  = flag.Int("buffer", 256, "with -replay: buffer pool pages")
		bufShards = flag.Int("bufshards", 1, "with -replay: buffer pool shards")
		replayK   = flag.Int("k", 0, "with -replay: override k for nearest records (0 keeps the captured k)")

		plot    = flag.String("plot", "", "render the paper's figures as SVG instead of the suite: 2,3,4,5,6 or all")
		plotDir = flag.String("o", ".", "with -plot: output directory")
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

	if *build {
		ws, err := parseWorkers(*workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "strbench: -workers: %v\n", err)
			os.Exit(2)
		}
		err = runBuildBench(os.Stdout, buildConfig{
			N:        cmp.Or(*n, 1000000),
			ExtN:     *extN,
			RunSize:  *runSize,
			Capacity: 100,
			Workers:  ws,
			Seed:     *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "strbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *concurrency {
		ws, err := parseWorkers(*workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "strbench: -workers: %v\n", err)
			os.Exit(2)
		}
		err = runConcurrency(os.Stdout, concurrencyConfig{
			Scale:   *scale,
			Queries: *queries,
			Seed:    *seed,
			Shards:  *shards,
			Workers: ws,
			OutPath: *concurrencyOut,
		})
		if err != nil {
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

	// Run with bounded concurrency, emitting results in request order.
	type result struct {
		table   *experiments.Table
		err     error
		elapsed time.Duration
	}
	results := make([]chan result, len(ids))
	sem := make(chan struct{}, maxInt(*jobs, 1))
	for i := range ids {
		results[i] = make(chan result, 1)
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			table, err := experiments.RunTrials(runners[i], cfg, *trials)
			results[i] <- result{table: table, err: err, elapsed: time.Since(start)}
		}(i)
	}

	for i, id := range ids {
		res := <-results[i]
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
