//go:build ignore

// Command pairstat summarises a pair file written by scripts/pairs.sh, one
// block per workload in the order the file first names them: per metric,
// the base's and the head's medians and quartiles, how many pairs the head
// won (by the metric's "better" direction in BENCHMARK.json; a tie is no
// win) and the median difference divided by the base's interquartile
// range. Quartiles interpolate linearly between order statistics.
//
// Each end-to-end metric also gets a verdict, judged against its "bound" in
// BENCHMARK.json, first match wins:
//
//	worse       the head median is worse than the base median by more than
//	            bound × |base median|
//	gain        at least 10 pairs, the head wins at least 9 in 10 of them,
//	            and its median is better by more than the base's IQR
//	unresolved  the base's IQR exceeds bound × |base median| and not every
//	            head run beats every base run: the spread hides the bound
//	same        anything else
//
// A gain is judged before unresolved: its median moved by more than the
// base's IQR in nine pairs of ten, so the spread does not hide it.
//
// A workload whose head failed a larger share of its operations than its
// base is flagged on its "failed ops" line.
//
//	go run scripts/pairstat.go -spec BENCHMARK.json PAIRS.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
)

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

type run struct {
	Noisy     bool               `json:"noisy"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Values    map[string]float64 `json:"values"`
}

type pair struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	BaseRev  string `json:"base_rev"`
	HeadRev  string `json:"head_rev"`
	First    string `json:"first"`
	Base     run    `json:"base"`
	Head     run    `json:"head"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark contract: metric names, units, directions, bounds")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/pairstat.go -spec BENCHMARK.json PAIRS.jsonl")
		os.Exit(2)
	}
	if err := summarise(*specPath, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "pairstat:", err)
		os.Exit(1)
	}
}

func summarise(specPath, pairsPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	f, err := os.Open(pairsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var order []string
	byWorkload := map[string][]pair{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		var p pair
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("%s line %d: %w", pairsPath, n, err)
		}
		if _, ok := byWorkload[p.Workload]; !ok {
			order = append(order, p.Workload)
		}
		byWorkload[p.Workload] = append(byWorkload[p.Workload], p)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(order) == 0 {
		return fmt.Errorf("%s: no pairs", pairsPath)
	}
	for _, w := range order {
		block(sp, byWorkload[w])
	}
	return nil
}

// block prints one workload's pairs.
func block(sp spec, pairs []pair) {
	p0 := pairs[0]
	baseFirst := 0
	for _, p := range pairs {
		if p.First == "base" {
			baseFirst++
		}
	}
	fmt.Printf("\n%s, seed %d: base %s vs head %s, %d pairs, base first in %d\n",
		p0.Workload, p0.Seed, p0.BaseRev, p0.HeadRev, len(pairs), baseFirst)
	var noisy [2]int
	var attempted, failed [2]int64
	for _, p := range pairs {
		for i, r := range []run{p.Base, p.Head} {
			if r.Noisy {
				noisy[i]++
			}
			attempted[i] += r.Attempted
			failed[i] += r.Failed
		}
	}
	flagged := ""
	if failed[1]*max(attempted[0], 1) > failed[0]*max(attempted[1], 1) {
		flagged = "  HIGHER FAILED SHARE ON HEAD"
	}
	fmt.Printf("failed ops: base %d of %d, head %d of %d%s; runs flagged noisy: base %d, head %d\n",
		failed[0], attempted[0], failed[1], attempted[1], flagged, noisy[0], noisy[1])
	fmt.Printf("%-30s %-10s %30s %30s %9s %6s %8s  %s\n", "metric", "unit", "base median [q1 q3]", "head median [q1 q3]", "Δ median", "wins", "Δ/IQR", "verdict")
	for _, m := range sp.EndToEnd {
		line(m, pairs, true)
	}
	for _, m := range sp.PerLayer {
		line(m, pairs, false)
	}
}

// line prints one metric's row, or nothing if no pair measured it; an
// end-to-end row ends in its verdict.
func line(m metric, pairs []pair, endToEnd bool) {
	var b, h []float64
	wins := 0
	for _, p := range pairs {
		bv, okb := p.Base.Values[m.Name]
		hv, okh := p.Head.Values[m.Name]
		if !okb || !okh {
			continue
		}
		b, h = append(b, bv), append(h, hv)
		if better(m, hv, bv) {
			wins++
		}
	}
	if len(b) == 0 {
		return
	}
	v := ""
	if endToEnd {
		v = verdict(m, b, h, wins)
	}
	if slices.Min(b) == slices.Max(h) && slices.Max(b) == slices.Min(h) {
		fmt.Printf("%-30s %-10s %30s   equal on every run  %s\n", m.Name, m.Unit, num(b[0]), v)
		return
	}
	bq, hq := quartiles(b), quartiles(h)
	rel := "—"
	if bq[1] != 0 {
		rel = fmt.Sprintf("%+.1f %%", 100*(hq[1]-bq[1])/math.Abs(bq[1]))
	}
	iqr := "—"
	if d := bq[2] - bq[0]; d > 0 {
		iqr = fmt.Sprintf("%+.2f", (hq[1]-bq[1])/d)
	}
	fmt.Printf("%-30s %-10s %30s %30s %9s %6s %8s  %s\n", m.Name, m.Unit,
		quart(bq), quart(hq), rel, fmt.Sprintf("%d/%d", wins, len(b)), iqr, v)
}

// verdict judges an end-to-end metric's head runs h against its base runs
// b, of which the head won wins pairs.
func verdict(m metric, b, h []float64, wins int) string {
	bq, hq := quartiles(b), quartiles(h)
	limit := m.Bound * math.Abs(bq[1])
	switch {
	case better(m, bq[1], hq[1]) && math.Abs(hq[1]-bq[1]) > limit:
		return "worse"
	case len(b) >= 10 && 10*wins >= 9*len(b) && better(m, hq[1], bq[1]) && math.Abs(hq[1]-bq[1]) > bq[2]-bq[0]:
		return "gain"
	case bq[2]-bq[0] > limit && !dominates(m, h, b):
		return "unresolved"
	}
	return "same"
}

// better reports whether x is better than y in m's direction.
func better(m metric, x, y float64) bool {
	if m.Better == "higher" {
		return x > y
	}
	return x < y
}

// dominates reports whether every run in h is better than every run in b.
func dominates(m metric, h, b []float64) bool {
	if m.Better == "higher" {
		return slices.Min(h) > slices.Max(b)
	}
	return slices.Max(h) < slices.Min(b)
}

// quartiles returns q1, the median and q3 of xs.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func quart(q [3]float64) string {
	return fmt.Sprintf("%s [%s %s]", num(q[1]), num(q[0]), num(q[2]))
}

// num prints a value in four significant digits.
func num(v float64) string { return fmt.Sprintf("%.4g", v) }
