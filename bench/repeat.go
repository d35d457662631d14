package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// runChild re-executes this binary for one workload, so the measurement
// starts from a clean heap and its VmHWM is its own. It returns the
// child's result (from its ledger line) and its whole standard output.
func runChild(cfg config, workload string) (*result, []byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds),
		"-trace", strconv.Itoa(cfg.trace),
		"-out", cfg.out,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var res *result
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), ledgerPrefix); ok {
			res = new(result)
			if err := json.Unmarshal([]byte(line), res); err != nil {
				return nil, out, fmt.Errorf("%s: ledger line: %w", workload, err)
			}
		}
	}
	if res == nil {
		return nil, out, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	return res, out, nil
}

// runAll measures every workload of BENCHMARK.json, one child each, and
// passes their reports through.
func runAll(cfg config, spec *benchSpec) int {
	code := 0
	for _, w := range spec.Workloads {
		res, out, err := runChild(cfg, w.Name)
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// exactOn lists the counts that must repeat exactly between two runs of
// one commit with one seed, and the workloads each is exact on: a fixed
// tape run by one goroutine makes the same page requests every time.
var exactOn = map[string][]string{
	"accesses_per_op":     {"query_hot", "query_cold", "mutate"},
	"write_pages_per_op":  {"mutate", "build"},
	"bytes_per_entry":     {"query_hot", "query_cold", "mutate", "build", "serve"},
	"pack.leaf_area":      {"build"},
	"pack.leaf_perimeter": {"build"},
}

// runRepeat is the harness's self-check: k full sets of end-to-end runs of
// this commit with one seed. Per metric and workload it prints the values,
// their median and quartiles, and the spread against the metric's bound;
// it fails if any two sets disagree on a timed metric by more than its
// bound, on an exact count at all, or if any run had a failed op.
func runRepeat(cfg config, spec *benchSpec) int {
	cfg.trace = 0
	sets := make([]map[string]*result, cfg.repeat)
	for k := range sets {
		sets[k] = map[string]*result{}
		for _, w := range spec.Workloads {
			fmt.Fprintf(os.Stderr, "bench: set %d of %d: %s\n", k+1, cfg.repeat, w.Name)
			res, out, err := runChild(cfg, w.Name)
			if err != nil {
				os.Stdout.Write(out)
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			sets[k][w.Name] = res
		}
	}

	if checkSets(os.Stdout, spec, sets) > 0 {
		return 1
	}
	return 0
}

// checkSets prints the comparison of k sets of results as Markdown and
// returns how many checks failed.
func checkSets(w io.Writer, spec *benchSpec, sets []map[string]*result) int {
	bad := 0
	e := sets[0][spec.Workloads[0].Name].Env
	fmt.Fprintf(w, "# %d sets of every workload, one commit, one seed\n\n", len(sets))
	fmt.Fprintf(w, "commit %s, seed %d, %d s measured per run, nproc %d, P %d, GOGC %s, %s, kernel %s\n\n",
		e.Commit, e.Seed, e.Seconds, e.NProc, e.P, e.GOGC, e.GoVersion, e.Kernel)
	fmt.Fprintln(w, "Spread is the interquartile distance over the median (Python's statistics.quantiles, n=4);")
	fmt.Fprintln(w, "disagreement is the largest relative difference between any two sets. A timed metric passes")
	fmt.Fprintln(w, "when its disagreement is within its bound; an exact count passes when every set gives the same value.")

	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n## %s\n\n", wl.Name)
		fmt.Fprintln(w, "| metric | unit | values | median | q1 | q3 | spread | disagreement | bound | verdict |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
		for k := range sets {
			if res := sets[k][wl.Name]; !res.correct() {
				bad++
				fmt.Fprintf(w, "| failed ops | count | set %d: %d of %d (%s) | | | | | | 0 | FAIL |\n", k+1, res.Failed, res.Attempted, res.FirstFailure)
			}
		}
		row := func(m metricSpec, exact bool) {
			vals := make([]float64, len(sets))
			for k := range sets {
				v, ok := sets[k][wl.Name].Values[m.Name]
				if !ok {
					return
				}
				vals[k] = v
			}
			q1, q2, q3 := quartiles(vals)
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			disagree := 0.0
			if hi > lo {
				disagree = (hi - lo) / math.Abs(lo)
			}
			bound, verdict := "", "ok"
			switch {
			case exact:
				bound = "exact"
				if hi > lo {
					verdict = "FAIL"
				}
			default:
				bound = fmt.Sprintf("%.0f %%", 100*m.Bound)
				if disagree > m.Bound {
					verdict = "FAIL"
				}
			}
			if verdict == "FAIL" {
				bad++
			}
			strs := make([]string, len(vals))
			for i, v := range vals {
				strs[i] = strconv.FormatFloat(v, 'g', 6, 64)
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.6g | %.6g | %.2f %% | %.2f %% | %s | %s |\n",
				m.Name, m.Unit, strings.Join(strs, ", "), q2, q1, q3, 100*relSpread(vals), 100*disagree, bound, verdict)
		}
		for _, m := range spec.EndToEnd {
			row(m, slices.Contains(exactOn[m.Name], wl.Name))
		}
		for _, m := range spec.PerLayer {
			if slices.Contains(exactOn[m.Name], wl.Name) {
				row(m, true)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d check(s) FAILED\n", bad)
	} else {
		fmt.Fprintf(w, "\nall sets agree within the bounds; every exact count repeats\n")
	}
	return bad
}
