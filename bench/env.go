package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envBlock is printed with every result so a number can be traced to the
// machine and settings that produced it.
type envBlock struct {
	NProc     int    `json:"nproc"`
	P         int    `json:"p"`
	GOGC      string `json:"gogc"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
	Commit    string `json:"commit"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Smoke     bool   `json:"smoke"`
}

// maxProcs is the ledger's ceiling on load-generating goroutines and
// connections: enough to show contention, few enough that generator and
// servers still fit a small shared box.
const maxProcs = 4

func procs() int { return min(runtime.NumCPU(), maxProcs) }

func readEnv(root string, seed int64, seconds int, smoke bool) envBlock {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return envBlock{
		NProc:     runtime.NumCPU(),
		P:         procs(),
		GOGC:      gogc,
		GoVersion: runtime.Version(),
		Kernel:    firstLine("/proc/sys/kernel/osrelease"),
		Commit:    commitOf(root),
		Seed:      seed,
		Seconds:   seconds,
		Smoke:     smoke,
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// commitOf names the commit under test. The driver's checkouts are plain
// directories, not repositories, so "unknown" is an expected answer.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
// Each workload runs in its own process, so the figure is that workload's.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// calibSink keeps the calibration loop's result alive.
var calibSink float64

// calibLoop times one pass of a fixed arithmetic loop: no memory traffic,
// no system calls, nothing the program under test could change.
func calibLoop() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	f := 0.0
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f += float64(x&1023) * 0.5
	}
	calibSink = f
	return time.Since(t0)
}

// fastestLoop is the fastest of some passes of the loop: a single 4 ms
// timing is itself at the mercy of the box.
func fastestLoop(passes int) time.Duration {
	best := calibLoop()
	for r := 1; r < passes; r++ {
		best = min(best, calibLoop())
	}
	return best
}

// calibrate returns the loop's duration in nanoseconds. Run before and
// after a measurement it says whether the machine's speed changed
// underneath it.
func calibrate() float64 { return float64(fastestLoop(9)) }

// calibRefNs is what one pass of the calibration loop takes on the 2-core
// reference box at its fastest: the speed every timed end-to-end metric is
// stated at.
const calibRefNs = 3.95e6

// machineSpeed times the calibration loop now (some 12 ms) and returns
// the machine's speed relative to the reference box: 1 is the reference at
// its fastest, 0.8 a machine — or a moment — a fifth slower.
func machineSpeed() float64 { return calibRefNs / float64(fastestLoop(3)) }

// calibDriftPct is the relative change between two calibrations.
func calibDriftPct(before, after float64) float64 {
	if before <= 0 {
		return 0
	}
	return 100 * (after - before) / before
}

// A run whose calibration moved by more than noisyDriftPct is marked
// noisy. It is not done over (the issue asked for that): a measured run
// goes round for all of -seconds and keeps every op's fastest time, so it
// already holds whatever quiet moments those seconds had; a second run
// was no steadier than the first on the reference box, and on the
// driver's time budget it would cost every other run its length.
const noisyDriftPct = 10.0

// timerCostNs measures one span's bookkeeping — the two clock reads and
// the append the tracer pays per begin/end pair — so the reconciliation
// can name the time tracing itself added.
func timerCostNs() float64 {
	const n = 200_000
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		tr := newTracer(n)
		tr.on = true
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tr.end(tr.begin(spFetch))
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / n
}

// makeTempDir creates the run's private scratch directory inside the
// checkout (never the system temp directory: the benchmark may write only
// inside its checkout).
func makeTempDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "ledger-*")
}
