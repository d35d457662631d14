// Command bench is the repository's performance ledger: five named
// workloads, end-to-end metrics measured through the public API and the
// wire, and — with -trace 1 — a traced second pass plus layer probes that
// attribute the end-to-end time to layers and print what they leave
// unexplained. README.md in this directory is the manual; BENCHMARK.json
// at the repository root is the contract (names, units, bounds).
//
// One invocation measures one workload in one process:
//
//	bash bench/run.sh -workload query_hot -seed 1 -seconds 15 -trace 0
//
// -workload all and -repeat k re-execute this binary once per workload,
// so every measurement starts from a clean heap.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
	repeat   int
	out      string
}

// sizes fixes how much work each workload does. A measured run is a
// fixed sequence of ops — a tape, a pair of builds, a closed and an open
// round of requests — short enough to take about a second, gone through
// again and again until -seconds are up (and never fewer than minRounds
// times). The sequence does not depend on -seconds or on the machine:
// the same ops are timed on both sides of any later comparison, counts
// repeat exactly, and a slow moment changes how many rounds fit, never
// what a round measures.
type sizes struct {
	items int // uniform squares, density 1.0

	// query_hot / query_cold
	queryOps            int // tape length
	querySamples        int // ops checked against the linear scan
	warmOps             int // tape prefix run before measuring
	hotPages, coldPages int // BufferPages

	// mutate
	mutateItems                   int // see fullSizes
	mutatePages                   int
	mutatePeriods                 int // tape length, in flush periods
	mutateSamples, mutateFlushOps int

	// build
	buildItems, buildMin     int // in-memory: items per build, fewest timed builds
	extItems, extRun, extMin int // external: items, RunSize, fewest timed builds

	// serve
	shards, shardPages, shardBufShards int
	serveOps                           int // requests of one closed-loop round (the tape)
	openOps                            int // requests of one open-loop round (the tape's first)
	serveCheckEvery                    int // one response in this many is compared
	serveRPS                           int // phase B's fixed open-loop rate
	ladderOps                          int // requests the hop ladder replays

	// shared
	setupRepeats int // set-up runs at least this often; setup_s is the median
	probeLoops   int
	probeMin     time.Duration
	probeEntries int // entries the pack/psort/extsort probes order
}

// fullSizes is the ledger. uniform-1m is the paper's synthetic family at
// ten times its largest size: 9 902 pages of 4 KiB, fan-out 102, height 3.
// A round lasts about a second at the seed commit on the 2-core reference
// box: 10 000 query ops, 16 384 mutate ops, two in-memory builds and one
// external, 6 000 closed-loop requests and then 1 500 on the open schedule.
//
// mutate runs on half the data. At a million items the packed tree's root
// holds 97 of its 102 entries and splits within the first few hundred
// inserts, and how that one split happens to partition the tree decides
// where the next hundred thousand inserts go: on some seeds they funnel
// into half the leaves and split 40 % less often, on others not, and
// ops_per_s moves by a third with the toss. At half a million the root
// has room for every first split below it, the tree stays at height 3,
// and the split count repeats within 2 % from seed to seed.
var fullSizes = sizes{
	items:    1_000_000,
	queryOps: 10_000, querySamples: 500, warmOps: 3_000,
	hotPages: 16_384, coldPages: 250,
	mutateItems: 500_000, mutatePages: 1_024, mutatePeriods: 2, mutateSamples: 200, mutateFlushOps: 8_192,
	buildItems: 500_000, buildMin: 9, extItems: 131_072, extRun: 1 << 14, extMin: 4,
	shards: 3, shardPages: 4_096, shardBufShards: 4,
	serveOps: 6_000, openOps: 1_500, serveCheckEvery: 64, serveRPS: serveFixedRPS, ladderOps: 2_000,
	setupRepeats: 3, probeLoops: 5, probeMin: 40 * time.Millisecond, probeEntries: 200_000,
}

// smokeSizes runs every code path in about a second per workload, for
// the tests and for trying the harness out. Its numbers mean nothing.
var smokeSizes = sizes{
	items:    10_000,
	queryOps: 1_000, querySamples: 60, warmOps: 100,
	hotPages: 1_024, coldPages: 8,
	mutateItems: 10_000, mutatePages: 64, mutatePeriods: 4, mutateSamples: 40, mutateFlushOps: 256,
	buildItems: 10_000, buildMin: 3, extItems: 4_096, extRun: 512, extMin: 2,
	shards: 3, shardPages: 256, shardBufShards: 4,
	serveOps: 600, openOps: 200, serveCheckEvery: 8, serveRPS: 400, ladderOps: 100,
	setupRepeats: 2, probeLoops: 1, probeMin: time.Millisecond, probeEntries: 5_000,
}

// serveFixedRPS is phase B's open-loop rate: 40 % of the phase-A
// (closed-loop, P clients) rate measured at this benchmark's seed commit
// on the 2-core reference box, rounded to 500. It is frozen here so that
// phase-B latency is always latency at the same offered load.
const serveFixedRPS = 1_000

// runCtx is one workload run's environment.
type runCtx struct {
	cfg  config
	spec *benchSpec
	sz   sizes
	root string
	tmp  string // private scratch directory, removed on exit
	p    int    // GOMAXPROCS and the client-goroutine ceiling
	res  *result
}

func (c *runCtx) traced() bool { return c.cfg.trace != 0 }

// measureFor is how long the measured part of a run lasts.
func (c *runCtx) measureFor() time.Duration { return time.Duration(c.cfg.seconds) * time.Second }

func (c *runCtx) path(name string) string { return filepath.Join(c.tmp, name) }

// workloadFuncs maps the names in BENCHMARK.json to their code.
var workloadFuncs = map[string]func(*runCtx) error{
	"query_hot":  func(c *runCtx) error { return runQuery(c, false) },
	"query_cold": func(c *runCtx) error { return runQuery(c, true) },
	"mutate":     runMutate,
	"build":      runBuild,
	"serve":      runServe,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload name from BENCHMARK.json, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 0, "length of the measured part (0 = run_seconds from BENCHMARK.json)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 runs the traced pass and the layer probes and reports per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes: every code path in about a second, numbers meaningless")
	flag.IntVar(&cfg.repeat, "repeat", 0, "run this many full sets and check that they agree within the bounds")
	flag.StringVar(&cfg.out, "out", "", "directory for trace files (default bench/out under the repository root)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if cfg.seconds <= 0 {
		cfg.seconds = spec.RunSeconds
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(root, "bench", "out")
	}

	switch {
	case cfg.repeat > 0:
		return runRepeat(cfg, spec)
	case cfg.workload == "all":
		return runAll(cfg, spec)
	}
	if !spec.hasWorkload(cfg.workload) || workloadFuncs[cfg.workload] == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := runOne(cfg, spec, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := printReport(os.Stdout, spec, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(driverLine(spec, res))
	if !res.correct() {
		return 1
	}
	return 0
}

// runOne measures one workload in this process. A run whose calibration
// loop drifts by more than noisyDriftPct between start and end is marked
// noisy.
func runOne(cfg config, spec *benchSpec, root string) (res *result, err error) {
	defer func() {
		if p := recover(); p != nil {
			pf, ok := p.(probeFailure)
			if !ok {
				panic(p)
			}
			res, err = nil, pf.err
		}
	}()
	p := procs()
	runtime.GOMAXPROCS(p)
	tmp, err := makeTempDir(root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// Remove the scratch directory on a signal too: index files must not
	// outlive the run on any exit path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done, watched := make(chan struct{}), make(chan struct{})
	defer func() {
		signal.Stop(sig)
		close(done)
		<-watched
	}()
	go func() {
		defer close(watched)
		select {
		case <-sig:
			os.RemoveAll(tmp)
			os.Exit(130)
		case <-done:
		}
	}()

	sz := fullSizes
	if cfg.smoke {
		sz = smokeSizes
	}
	env := readEnv(root, cfg.seed, cfg.seconds, cfg.smoke)
	c := &runCtx{cfg: cfg, spec: spec, sz: sz, root: root, tmp: tmp, p: p}
	c.res = newResult(cfg.workload, cfg.trace != 0, env)
	calibrate() // the first call of a process runs cold; discard it
	before := calibrate()
	if err := workloadFuncs[cfg.workload](c); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	drift := calibDriftPct(before, calibrate())
	c.res.set("harness.calib_ns", before)
	c.res.set("harness.calib_drift_pct", drift)
	c.res.Noisy = math.Abs(drift) > noisyDriftPct
	return c.res, nil
}
