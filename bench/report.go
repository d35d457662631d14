package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"strtree"
)

// result is everything one workload run measured. Values is keyed by
// metric name; only names BENCHMARK.json lists may appear in it.
type result struct {
	Workload     string             `json:"workload"`
	Trace        bool               `json:"trace"`
	Env          envBlock           `json:"env"`
	Noisy        bool               `json:"noisy"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	FirstFailure string             `json:"first_failure,omitempty"`
	Values       map[string]float64 `json:"values"`
	// Samples is the sample count behind a percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
}

func newResult(workload string, trace bool, env envBlock) *result {
	return &result{Workload: workload, Trace: trace, Env: env, Values: map[string]float64{}, Samples: map[string]int{}}
}

// set files one value. A figure that is not a number (a ratio over a
// zero a smoke run can produce) is filed as 0: the driver's line must
// stay JSON.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Values[name] = v
}

func (r *result) setSampled(name string, v float64, samples int) {
	r.Values[name] = v
	r.Samples[name] = samples
}

// setAll files a group of probe results.
func (r *result) setAll(ps []probe) {
	for _, p := range ps {
		r.set(p.name, p.value)
	}
}

// setTally files what a run attempted and what failed.
func (r *result) setTally(tl tally) {
	r.Attempted, r.Failed, r.FirstFailure = tl.attempted, tl.failed, tl.firstFailure
	r.set("failed_share", perOp(float64(tl.failed), tl.attempted))
}

// setIO files the buffer pool's counters over ops ops: the paper's access
// count and the per-layer counts derived from the same four numbers.
func (r *result) setIO(io strtree.IOStats, ops int64) {
	r.set("accesses_per_op", perOp(float64(io.DiskReads), ops))
	r.set("storage.reads_per_op", perOp(float64(io.DiskReads), ops))
	r.set("storage.writes_per_op", perOp(float64(io.DiskWrites), ops))
	r.set("buffer.logical_reads_per_op", perOp(float64(io.LogicalReads), ops))
	r.set("buffer.evictions_per_op", perOp(float64(io.Evictions), ops))
	r.set("buffer.writebacks_per_op", perOp(float64(io.DiskWrites), ops))
	if io.LogicalReads > 0 {
		r.set("buffer.hit_ratio", 1-float64(io.DiskReads)/float64(io.LogicalReads))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// ledgerPrefix starts the one line of a child's output that carries its
// whole result as JSON, for the parent of an `all` or `-repeat` run.
const ledgerPrefix = "ledger "

// driverLine is the contract's last line of standard output: exactly the
// keys correct, attempted, failed and metrics, the metrics being every
// end-to-end metric (trace off) or every per-layer metric (trace on). A
// per-layer metric the workload does not exercise reads 0.
func driverLine(spec *benchSpec, r *result) string {
	list := spec.EndToEnd
	if r.Trace {
		list = spec.PerLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{\"correct\": %t, \"attempted\": %d, \"failed\": %d, \"metrics\": {", r.correct(), r.Attempted, r.Failed)
	for i, m := range list {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: {\"value\": %s, \"unit\": %s}", strconv.Quote(m.Name),
			strconv.FormatFloat(r.Values[m.Name], 'g', -1, 64), strconv.Quote(m.Unit))
	}
	b.WriteString("}}")
	return b.String()
}

// printReport writes the human-readable part: environment, the metrics by
// name and unit in BENCHMARK.json's order, and the ledger line.
func printReport(w io.Writer, spec *benchSpec, r *result) error {
	bw := bufio.NewWriter(w)
	e := r.Env
	fmt.Fprintf(bw, "\nworkload %s  seed %d  seconds %d  trace %t  smoke %t\n", r.Workload, e.Seed, e.Seconds, r.Trace, e.Smoke)
	fmt.Fprintf(bw, "env: nproc %d  P %d  GOGC %s  %s  kernel %s  commit %s\n", e.NProc, e.P, e.GOGC, e.GoVersion, e.Kernel, e.Commit)
	if r.Noisy {
		fmt.Fprintf(bw, "NOISY: calibration drifted %.1f %% across the run\n", r.Values["harness.calib_drift_pct"])
	}
	fmt.Fprintf(bw, "attempted %d  failed %d", r.Attempted, r.Failed)
	if r.FirstFailure != "" {
		fmt.Fprintf(bw, "  first failure: %s", r.FirstFailure)
	}
	fmt.Fprintln(bw)
	section := func(title string, list []metricSpec) {
		fmt.Fprintf(bw, "%s\n", title)
		for _, m := range list {
			v, ok := r.Values[m.Name]
			if !ok {
				continue // not measured on this workload
			}
			fmt.Fprintf(bw, "  %-34s %16.6g %-10s", m.Name, v, m.Unit)
			if n := r.Samples[m.Name]; n > 0 {
				fmt.Fprintf(bw, " (n=%d)", n)
			}
			if m.Bound > 0 {
				fmt.Fprintf(bw, " bound %.0f %%, %s is better", 100*m.Bound, m.Better)
			}
			fmt.Fprintln(bw)
		}
	}
	section("end to end", spec.EndToEnd)
	section("counts and per layer", spec.PerLayer)
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s%s\n", ledgerPrefix, data)
	return bw.Flush()
}
