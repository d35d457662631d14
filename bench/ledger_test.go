package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"strtree/internal/datagen"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.1, 10}, {0.01, 10}, {1, 100}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestMedianAndFastestOfRounds(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Three rounds of five ops; a stall hits op 2 in round 0 and op 4 in
	// round 1. Each op keeps its fastest time, so neither stall survives.
	// Round 1 ran on a machine at half the reference speed, so its
	// timings count for half.
	best := make([]int64, 5)
	for round, lat := range [][]int64{
		{1000, 2000, 90000, 4000, 5000},
		{2200, 4200, 6000, 8200, 140000},
		{900, 2200, 3100, 4200, 5100},
	} {
		keepFastest(best, lat, []float64{1, 0.5, 1}[round], round == 0)
	}
	for i, want := range []int64{900, 2000, 3000, 4000, 5000} {
		if best[i] != want {
			t.Errorf("op %d keeps %d ns, want %d", i, best[i], want)
		}
	}
	d := digestLatencies(best)
	if d.ops != 5 || d.busy != 14900 || d.p50 != 3 || d.p99 != 5 {
		t.Errorf("digest = %+v", d)
	}
	if want := 5 / 14900e-9; math.Abs(d.rate()-want) > 1e-6*want {
		t.Errorf("rate = %v, want %v", d.rate(), want)
	}
	if best[0] != 900 || best[4] != 5000 {
		t.Error("digestLatencies must leave its input in place")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4):
// the driver computes its spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2}, 0, 6, 12}, // two points extrapolate
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{105, 100, 98, 101, 99, 97, 103, 102, 100, 104}, 98.75, 100.5, 103.25},
	} {
		q1, q2, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.vals, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := relSpread([]float64{105, 100, 98, 101, 99, 97, 103, 102, 100, 104}); math.Abs(got-4.5/100.5) > 1e-9 {
		t.Errorf("relSpread = %v", got)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// op [0,100] -> fetch [10,40] -> read [15,35]; fetch [50,60].
	nested := []span{
		{Kind: spOp, Parent: -1, Start: 0, End: 100},
		{Kind: spFetch, Parent: 0, Start: 10, End: 40},
		{Kind: spRead, Parent: 1, Start: 15, End: 35},
		{Kind: spFetch, Parent: 0, Start: 50, End: 60},
	}
	got := selfTimes(nested)
	if got[spOp] != 60 || got[spFetch] != 20 || got[spRead] != 20 {
		t.Errorf("nested self times: op %d fetch %d read %d, want 60 20 20", got[spOp], got[spFetch], got[spRead])
	}
	byLayer := layerSelf(got)
	if byLayer[layRtree] != 60 || byLayer[layBuffer] != 20 || byLayer[layStorage] != 20 {
		t.Errorf("layer self times %v", byLayer)
	}
	if sum := byLayer[layRtree] + byLayer[layBuffer] + byLayer[layStorage]; sum != 100 {
		t.Errorf("self times sum to %d, the root span lasted 100", sum)
	}
	// Overlapping children (concurrent writes) are covered once: the
	// union of [10,50] and [30,70] and [90,120→clipped 100] is 70.
	flat := []span{
		{Kind: spBuild, Parent: -1, Start: 0, End: 100},
		{Kind: spWrite, Parent: 0, Start: 10, End: 50},
		{Kind: spWrite, Parent: 0, Start: 30, End: 70},
		{Kind: spWrite, Parent: 0, Start: 90, End: 120},
	}
	if got := spanSelf(flat)[0]; got != 30 {
		t.Errorf("root self with overlapping children = %d, want 30", got)
	}
}

func TestTracerNestsAndSamples(t *testing.T) {
	tr := newTracer(8)
	if tr.begin(spOp) != -1 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.on = true
	op := tr.begin(spOp)
	f := tr.begin(spFetch)
	rd := tr.begin(spRead)
	tr.end(rd)
	tr.end(f)
	tr.end(op)
	if len(tr.spans) != 3 || tr.spans[rd].Parent != f || tr.spans[f].Parent != op || tr.spans[op].Parent != -1 {
		t.Fatalf("nesting wrong: %+v", tr.spans)
	}
	for i := 0; i < 10; i++ {
		tr.end(tr.begin(spFetch))
	}
	if len(tr.spans) != 8 || tr.dropped != 5 {
		t.Errorf("a full tracer must drop and count: %d spans, %d dropped", len(tr.spans), tr.dropped)
	}
	path := t.TempDir() + "/trace.json"
	if err := writeTrace(path, "unit", tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped"`
		Spans    []struct {
			ID, Op, Parent int
			Name           string
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if doc.Workload != "unit" || doc.Dropped != 5 || len(doc.Spans) != 8 || doc.Spans[2].Name != "storage.read" || doc.Spans[2].Parent != 1 {
		t.Errorf("trace file content: %+v", doc)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One client, 1000 req/s; request 0 stalls 30 ms. Every request due
	// during the stall must be charged its wait: latency counts from when
	// it was due, and the generator reports how far behind it ran.
	var mu sync.Mutex
	order := []int{}
	res, err := openLoop(40, 1000, 1, time.Second, func(_, i int) bool {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return i != 7
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range order {
		if want != i {
			t.Fatalf("requests sent out of order: %v", order)
		}
	}
	if res.lat[0] < int64(30*time.Millisecond) {
		t.Errorf("request 0 took %v, less than its own stall", time.Duration(res.lat[0]))
	}
	// Request 10 was due at 10 ms, while the client was stalled until 30.
	if res.lat[10] < int64(15*time.Millisecond) {
		t.Errorf("request 10's latency %v does not include its wait behind the stall", time.Duration(res.lat[10]))
	}
	if res.lag[10] < int64(15*time.Millisecond) {
		t.Errorf("request 10's send lag %v: the generator was at least 15 ms behind", time.Duration(res.lag[10]))
	}
	if res.backlogMax < 15 {
		t.Errorf("backlog peaked at %d; about 30 requests came due during the stall", res.backlogMax)
	}
	if res.ok[7] || !res.ok[8] || !res.sent[39] {
		t.Errorf("ok/sent flags wrong: ok[7]=%v ok[8]=%v sent[39]=%v", res.ok[7], res.ok[8], res.sent[39])
	}
	// Not before time: no request is sent early.
	for i, lag := range res.lag {
		if lag < 0 {
			t.Errorf("request %d sent %v early", i, time.Duration(-lag))
		}
	}
}

func TestOpenLoopGivesUp(t *testing.T) {
	res, err := openLoop(50, 1000, 2, 10*time.Millisecond, func(_, _ int) bool {
		time.Sleep(5 * time.Millisecond)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	unsent := 0
	for _, s := range res.sent {
		if !s {
			unsent++
		}
	}
	if unsent == 0 {
		t.Error("a generator 5x slower than its schedule must abandon requests at the give-up time")
	}
}

// scanAnswer answers the read op at tape index `at` by one plain linear
// scan: the reference fillOracle's single batched pass must agree with.
func scanAnswer(items []flatItem, o *op, at int32) answer {
	var a answer
	var ns nearestSet
	for i := range items {
		it := &items[i]
		switch {
		case !it.liveAt(at):
		case o.kind == opNearest:
			ns.offer(pointRectDist(o.x0, o.y0, it), it.id)
		case it.x0 <= o.x1 && o.x0 <= it.x1 && it.y0 <= o.y1 && o.y0 <= it.y1:
			a.add(it.id)
		}
	}
	switch o.kind {
	case opNearest:
		return ns.answer()
	case opCount:
		a.h = 0
	}
	return a
}

func TestOracleMatchesPlainScan(t *testing.T) {
	entries := datagen.UniformSquares(3000, 1.0, 7)
	tp := genQueryTape(7, 800, 200)
	items := flatten(entries)
	tp.fillOracle(items)
	checked := 0
	for i, c := range tp.check {
		if c < 0 {
			continue
		}
		checked++
		if got, want := tp.want[c], scanAnswer(items, &tp.ops[i], int32(i)); got != want {
			t.Fatalf("query op %d (%v): batched oracle %+v, plain scan %+v", i, tp.ops[i].kind, got, want)
		}
	}
	if checked != 200 {
		t.Fatalf("checked %d ops, want 200", checked)
	}

	// The mutate tape's answers depend on when an op runs: replay the
	// tape against a plain model and scan it at each marked read.
	mt, lens := genMutateTape(7, entries, 4, 256, 60)
	model := flatten(entries)
	live := len(model)
	marked := 0
	for i := range mt.ops {
		o := &mt.ops[i]
		switch o.kind {
		case opInsert:
			model = append(model, flatItem{o.x0, o.y0, o.x1, o.y1, o.id, int32(i), neverDied})
			live++
		case opDelete:
			found := false
			for j := range model {
				if m := &model[j]; m.id == o.id && m.liveAt(int32(i)) && m.x0 == o.x0 && m.y1 == o.y1 {
					m.died, found = int32(i), true
					break
				}
			}
			if !found {
				t.Fatalf("op %d deletes item %d, which is not live", i, o.id)
			}
			live--
		default:
			if c := mt.check[i]; c >= 0 {
				marked++
				if got, want := mt.want[c], scanAnswer(model, o, int32(i)); got != want {
					t.Fatalf("mutate op %d (%v): oracle %+v, plain scan of the model %+v", i, o.kind, got, want)
				}
			}
		}
		if (i+1)%256 == 0 && lens[(i+1)/256-1] != live {
			t.Fatalf("after op %d the tape's model holds %d items, the replay %d", i, lens[(i+1)/256-1], live)
		}
	}
	if marked != 60 {
		t.Fatalf("mutate tape marked %d reads, want 60", marked)
	}
	ins, del := 0, 0
	for _, o := range mt.ops[:256] {
		switch o.kind {
		case opInsert:
			ins++
		case opDelete:
			del++
		}
	}
	if ins != 64 || del != 64 {
		t.Errorf("a slice of 256 ops holds %d inserts and %d deletes, want 64 each", ins, del)
	}
}

func TestTapeMixIsExact(t *testing.T) {
	tp := genQueryTape(3, 2000, 10)
	var n [numOpKinds]int
	for _, o := range tp.ops {
		n[o.kind]++
	}
	if n[opPoint] != 800 || n[opSearch] != 800 || n[opCount] != 200 || n[opNearest] != 200 {
		t.Errorf("mix %v, want 800/800/200/200", n)
	}
	if again := genQueryTape(3, 2000, 10); again.ops[17] != tp.ops[17] || again.ops[1999] != tp.ops[1999] {
		t.Error("the same seed must give the same tape")
	}
	if other := genQueryTape(4, 2000, 10); other.ops[17] == tp.ops[17] {
		t.Error("another seed must give another tape")
	}
	st := genServeTape(3, 400, 8)
	batches := 0
	for _, o := range st.ops {
		if o.kind == opBatch {
			batches++
			if len(st.batches[o.id]) != batchWindows {
				t.Fatalf("batch of %d windows, want %d", len(st.batches[o.id]), batchWindows)
			}
		}
	}
	if batches != 8 || len(st.want) != 50 {
		t.Errorf("serve tape: %d batches (want 8), %d checked (want 50)", batches, len(st.want))
	}
}

// metric looks a name up in either list.
func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// unknownNames lists the values set under names BENCHMARK.json does not
// carry.
func unknownNames(spec *benchSpec, r *result) []string {
	var bad []string
	for name := range r.Values {
		if _, ok := spec.metric(name); !ok {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func loadTestSpec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

// TestSpecMeetsTheContract checks BENCHMARK.json against the limits the
// benchmark driver refuses a file outside of.
func TestSpecMeetsTheContract(t *testing.T) {
	spec, _ := loadTestSpec(t)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloadFuncs[w.Name] == nil {
			t.Errorf("workload %s has no code", w.Name)
		}
	}
	if len(workloadFuncs) != len(spec.Workloads) {
		t.Errorf("%d workloads in code, %d in %s", len(workloadFuncs), len(spec.Workloads), specFile)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s with unit s, lower is better")
	}
	for _, m := range spec.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	for name, on := range exactOn {
		if _, ok := spec.metric(name); !ok {
			t.Errorf("exact count %s is not in %s", name, specFile)
		}
		for _, w := range on {
			if !spec.hasWorkload(w) {
				t.Errorf("exact count %s names unknown workload %s", name, w)
			}
		}
	}
}

// TestSmokeEveryWorkload runs each workload end to end and traced at
// smoke size: every op must check out, every value must be filed under a
// name BENCHMARK.json carries, the driver's line must hold exactly the
// right list, and every per-layer metric must be produced by some
// workload's traced run.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, root := loadTestSpec(t)
	produced := map[string]bool{}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []int{0, 1} {
			cfg := config{workload: w.Name, seed: 11, seconds: 1, trace: trace, smoke: true, out: out}
			start := time.Now()
			res, err := runOne(cfg, spec, root)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			t.Logf("%s trace %d: %d ops, %d values, %v", w.Name, trace, res.Attempted, len(res.Values), time.Since(start).Round(time.Millisecond))
			if !res.correct() {
				t.Errorf("%s trace %d: %d of %d ops failed: %s", w.Name, trace, res.Failed, res.Attempted, res.FirstFailure)
			}
			if bad := unknownNames(spec, res); len(bad) > 0 {
				t.Errorf("%s trace %d: values under names not in %s: %v", w.Name, trace, specFile, bad)
			}
			for name := range res.Values {
				produced[name] = true
			}

			var line struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(driverLine(spec, res)))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace %d: driver line: %v", w.Name, trace, err)
			}
			list := spec.EndToEnd
			if trace == 1 {
				list = spec.PerLayer
			}
			if len(line.Metrics) != len(list) || line.Correct == nil || line.Attempted < 1 {
				t.Errorf("%s trace %d: driver line has %d metrics, want %d", w.Name, trace, len(line.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s missing or with the wrong unit in the driver line", w.Name, trace, m.Name)
					continue
				}
				if trace == 0 && !(*got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v; every one must be positive on every workload", w.Name, m.Name, *got.Value)
				}
			}
			if trace == 1 {
				if _, ok := res.Values["harness.unexplained_pct"]; !ok {
					t.Errorf("%s: the traced run printed no reconciliation", w.Name)
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is produced by no workload", m.Name)
		}
	}
}

// TestSmokeLayersAreExercised asserts what each workload was chosen for.
func TestSmokeLayersAreExercised(t *testing.T) {
	spec, root := loadTestSpec(t)
	run := func(w string, trace int) *result {
		res, err := runOne(config{workload: w, seed: 5, seconds: 1, trace: trace, smoke: true, out: t.TempDir()}, spec, root)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		return res
	}
	hot, cold := run("query_hot", 0), run("query_cold", 0)
	if hot.Values["accesses_per_op"] != 0 || hot.Values["storage.reads_per_op"] != 0 {
		t.Errorf("query_hot made %v accesses per op after warm-up, want 0", hot.Values["accesses_per_op"])
	}
	if cold.Values["accesses_per_op"] <= 1 {
		t.Errorf("query_cold made %v accesses per op; its buffer is far smaller than the tree", cold.Values["accesses_per_op"])
	}
	if again := run("query_cold", 0); again.Values["accesses_per_op"] != cold.Values["accesses_per_op"] {
		t.Errorf("accesses_per_op did not repeat: %v then %v", cold.Values["accesses_per_op"], again.Values["accesses_per_op"])
	}
	serve := run("serve", 1)
	if f := serve.Values["router.fanout_mean"]; f < 1 || f > 3 {
		t.Errorf("router.fanout_mean = %v, want within [1, 3]", f)
	}
	mutate := run("mutate", 0)
	if s := mutate.Values["rtree.inplace_share"]; s <= 0 || s > 1 {
		t.Errorf("rtree.inplace_share = %v", s)
	}
	if mutate.Values["write_pages_per_op"] <= 0 {
		t.Error("mutate wrote no pages")
	}
}

func TestCheckSets(t *testing.T) {
	spec, _ := loadTestSpec(t)
	mk := func(ops, accesses float64, failed int64) map[string]*result {
		set := map[string]*result{}
		for _, w := range spec.Workloads {
			r := newResult(w.Name, false, envBlock{})
			r.Attempted, r.Failed = 100, failed
			for _, m := range spec.EndToEnd {
				r.set(m.Name, 10)
			}
			r.set("ops_per_s", ops)
			r.set("accesses_per_op", accesses)
			set[w.Name] = r
		}
		return set
	}
	var buf bytes.Buffer
	if bad := checkSets(&buf, spec, []map[string]*result{mk(1000, 3.25, 0), mk(1050, 3.25, 0)}); bad != 0 {
		t.Errorf("two sets 5 %% apart, well within the bound: %d failures\n%s", bad, buf.String())
	}
	if bad := checkSets(&buf, spec, []map[string]*result{mk(1000, 3.25, 0), mk(1400, 3.25, 0)}); bad == 0 {
		t.Error("two sets 40 % apart on ops_per_s must fail")
	}
	if bad := checkSets(&buf, spec, []map[string]*result{mk(1000, 3.25, 0), mk(1000, 3.26, 0)}); bad == 0 {
		t.Error("an exact count that differs must fail")
	}
	if bad := checkSets(&buf, spec, []map[string]*result{mk(1000, 3.25, 0), mk(1000, 3.25, 1)}); bad == 0 {
		t.Error("a failed op must fail the check")
	}
}

// TestRoundClock: a run whose time is up still makes minRounds rounds, one
// with time left goes on past them, and every round has a speed.
func TestRoundClock(t *testing.T) {
	late := &roundClock{round: -1, deadline: time.Now().Add(-time.Second)}
	n := 0
	for late.next() {
		if late.round != n {
			t.Fatalf("round %d is numbered %d", n, late.round)
		}
		if s := late.speed(); !(s > 0) {
			t.Errorf("round %d: speed %v", n, s)
		}
		n++
	}
	if n != minRounds || len(late.speeds) != minRounds || !(late.meanSpeed() > 0) {
		t.Errorf("a run past its deadline made %d rounds with %d speeds, want %d", n, len(late.speeds), minRounds)
	}
	early := &roundClock{round: -1, deadline: time.Now().Add(time.Hour)}
	for i := 0; i < minRounds+2; i++ {
		if !early.next() {
			t.Fatalf("a run with an hour left stopped after %d rounds", i)
		}
	}
}

func TestCalibrationAndTimer(t *testing.T) {
	if c := calibrate(); c <= 0 {
		t.Errorf("calibrate = %v", c)
	}
	if s := machineSpeed(); s < 0.05 || s > 20 {
		t.Errorf("machineSpeed = %v, want this machine within a factor of 20 of the reference box", s)
	}
	if d := calibDriftPct(100, 112); d != 12 {
		t.Errorf("drift = %v, want 12", d)
	}
	if ns := timerCostNs(); ns <= 0 || ns > 10_000 {
		t.Errorf("one span costs %v ns", ns)
	}
	if peakRSSMiB() <= 0 {
		t.Error("VmHWM not read")
	}
	rng := rand.New(rand.NewSource(1))
	if o := genRead(rng, opCount, 0.1); o.x1 > 1 || o.y1 > 1 || o.x1 < o.x0 {
		t.Errorf("window not clamped to the unit square: %+v", o)
	}
}
