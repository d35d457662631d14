//go:build ignore

// Command pairstat summarises a pair file written by scripts/pairs.sh: per
// metric, the base's and the head's medians and quartiles, how many pairs
// the head won (by the metric's "better" direction in BENCHMARK.json; a tie
// is no win) and the median difference divided by the base's interquartile
// range, the statistic a claimed gain is judged by. Quartiles interpolate
// linearly between order statistics.
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
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
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
	Base     run    `json:"base"`
	Head     run    `json:"head"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark contract: metric names, units, directions")
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
	var pairs []pair
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var p pair
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("%s line %d: %w", pairsPath, len(pairs)+1, err)
		}
		pairs = append(pairs, p)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(pairs) == 0 {
		return fmt.Errorf("%s: no pairs", pairsPath)
	}
	p0 := pairs[0]
	fmt.Printf("\n%s, seed %d: base %s vs head %s, %d pairs\n", p0.Workload, p0.Seed, p0.BaseRev, p0.HeadRev, len(pairs))
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
	fmt.Printf("failed ops: base %d of %d, head %d of %d; runs flagged noisy: base %d, head %d\n",
		failed[0], attempted[0], failed[1], attempted[1], noisy[0], noisy[1])
	fmt.Printf("%-30s %-10s %30s %30s %9s %6s %8s\n", "metric", "unit", "base median [q1 q3]", "head median [q1 q3]", "Δ median", "wins", "Δ/IQR")
	for _, group := range [][]metric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range group {
			line(m, pairs)
		}
	}
	return nil
}

// line prints one metric's row, or nothing if no pair measured it.
func line(m metric, pairs []pair) {
	var b, h []float64
	wins := 0
	for _, p := range pairs {
		bv, okb := p.Base.Values[m.Name]
		hv, okh := p.Head.Values[m.Name]
		if !okb || !okh {
			continue
		}
		b, h = append(b, bv), append(h, hv)
		if (m.Better == "higher" && hv > bv) || (m.Better == "lower" && hv < bv) {
			wins++
		}
	}
	if len(b) == 0 {
		return
	}
	if slices.Min(b) == slices.Max(h) && slices.Max(b) == slices.Min(h) {
		fmt.Printf("%-30s %-10s %30s   equal on every run\n", m.Name, m.Unit, num(b[0]))
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
	fmt.Printf("%-30s %-10s %30s %30s %9s %6s %8s\n", m.Name, m.Unit,
		quart(bq), quart(hq), rel, fmt.Sprintf("%d/%d", wins, len(b)), iqr)
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
