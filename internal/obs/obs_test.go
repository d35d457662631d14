package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strtree/internal/histo"
)

// counter registers a counter series that reads v.
func counter(r *Registry, name, help string, v uint64, labels ...Label) {
	r.CounterFunc(name, help, func() uint64 { return v }, labels...)
}

// gauge registers a gauge series that reads v.
func gauge(r *Registry, name, help string, v float64, labels ...Label) {
	r.GaugeFunc(name, help, func() float64 { return v }, labels...)
}

// histogram registers a new histogram as a summary series and returns it.
func histogram(r *Registry, name, help string, labels ...Label) *histo.Histogram {
	h := &histo.Histogram{}
	r.HistogramFunc(name, help, h, labels...)
	return h
}

// gather renders the registry's Prometheus text exposition as a string.
func gather(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

// TestPrometheusExposition is the table-driven format pin: each case
// builds a registry and asserts the exact text exposition, covering label
// escaping, label ordering, help escaping and all three kinds.
func TestPrometheusExposition(t *testing.T) {
	cases := []struct {
		name  string
		build func(r *Registry)
		want  string
	}{
		{
			name: "counter no labels",
			build: func(r *Registry) {
				counter(r, "requests_total", "Requests served.", 3)
			},
			want: "# HELP requests_total Requests served.\n" +
				"# TYPE requests_total counter\n" +
				"requests_total 3\n",
		},
		{
			name: "labels sorted by key regardless of registration order",
			build: func(r *Registry) {
				counter(r, "hits_total", "Hits.", 1, L("zone", "b"), L("app", "x"))
			},
			want: "# HELP hits_total Hits.\n" +
				"# TYPE hits_total counter\n" +
				"hits_total{app=\"x\",zone=\"b\"} 1\n",
		},
		{
			name: "series sorted within a family",
			build: func(r *Registry) {
				counter(r, "ops_total", "Ops.", 2, L("op", "search"))
				counter(r, "ops_total", "Ops.", 5, L("op", "count"))
				counter(r, "ops_total", "Ops.", 1, L("op", "batch"))
			},
			want: "# HELP ops_total Ops.\n" +
				"# TYPE ops_total counter\n" +
				"ops_total{op=\"batch\"} 1\n" +
				"ops_total{op=\"count\"} 5\n" +
				"ops_total{op=\"search\"} 2\n",
		},
		{
			name: "families sorted by name",
			build: func(r *Registry) {
				gauge(r, "zz_gauge", "Last.", 1)
				counter(r, "aa_total", "First.", 1)
			},
			want: "# HELP aa_total First.\n" +
				"# TYPE aa_total counter\n" +
				"aa_total 1\n" +
				"# HELP zz_gauge Last.\n" +
				"# TYPE zz_gauge gauge\n" +
				"zz_gauge 1\n",
		},
		{
			name: "label value escaping: quote, backslash, newline",
			build: func(r *Registry) {
				gauge(r, "g", "Gauge.", 2.5, L("path", `C:\tmp`), L("q", "say \"hi\"\nbye"))
			},
			want: "# HELP g Gauge.\n" +
				"# TYPE g gauge\n" +
				"g{path=\"C:\\\\tmp\",q=\"say \\\"hi\\\"\\nbye\"} 2.5\n",
		},
		{
			name: "help escaping: backslash and newline, not quotes",
			build: func(r *Registry) {
				counter(r, "c_total", "line one\nline \\two \"quoted\"", 1)
			},
			want: "# HELP c_total line one\\nline \\\\two \"quoted\"\n" +
				"# TYPE c_total counter\n" +
				"c_total 1\n",
		},
		{
			name: "gauge func and counter func sample at exposition",
			build: func(r *Registry) {
				n := uint64(7)
				r.CounterFunc("sampled_total", "Sampled.", func() uint64 { return n })
				r.GaugeFunc("depth", "Depth.", func() float64 { return 1.25 })
			},
			want: "# HELP depth Depth.\n" +
				"# TYPE depth gauge\n" +
				"depth 1.25\n" +
				"# HELP sampled_total Sampled.\n" +
				"# TYPE sampled_total counter\n" +
				"sampled_total 7\n",
		},
		{
			name: "empty summary renders NaN quantiles and zero count",
			build: func(r *Registry) {
				histogram(r, "lat_seconds", "Latency.", L("op", "search"))
			},
			want: "# HELP lat_seconds Latency.\n" +
				"# TYPE lat_seconds summary\n" +
				"lat_seconds{op=\"search\",quantile=\"0.5\"} NaN\n" +
				"lat_seconds{op=\"search\",quantile=\"0.95\"} NaN\n" +
				"lat_seconds{op=\"search\",quantile=\"0.99\"} NaN\n" +
				"lat_seconds_sum{op=\"search\"} 0\n" +
				"lat_seconds_count{op=\"search\"} 0\n",
		},
		{
			name: "summary observations in seconds",
			build: func(r *Registry) {
				h := histogram(r, "dur_seconds", "Duration.")
				// One exact-bucket observation: quantile == value.
				h.Observe(7 * time.Nanosecond)
			},
			want: "# HELP dur_seconds Duration.\n" +
				"# TYPE dur_seconds summary\n" +
				"dur_seconds{quantile=\"0.5\"} 7e-09\n" +
				"dur_seconds{quantile=\"0.95\"} 7e-09\n" +
				"dur_seconds{quantile=\"0.99\"} 7e-09\n" +
				"dur_seconds_sum 7e-09\n" +
				"dur_seconds_count 1\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.build(r)
			if got := gather(t, r); got != tc.want {
				t.Errorf("exposition mismatch:\n got: %q\nwant: %q", got, tc.want)
			}
		})
	}
}

// TestExpositionDeterministic registers the same metrics in two different
// orders and requires byte-identical output — the property strlint's
// maporder check guards structurally and this test pins behaviorally.
func TestExpositionDeterministic(t *testing.T) {
	build := func(perm []int) *Registry {
		r := NewRegistry()
		type reg func(*Registry)
		regs := []reg{
			func(r *Registry) { counter(r, "b_total", "B.", 1, L("op", "x")) },
			func(r *Registry) { counter(r, "b_total", "B.", 2, L("op", "y")) },
			func(r *Registry) { gauge(r, "a", "A.", 3, L("shard", "1")) },
			func(r *Registry) { gauge(r, "a", "A.", 4, L("shard", "0")) },
			func(r *Registry) { histogram(r, "c_seconds", "C.") },
		}
		for _, i := range perm {
			regs[i](r)
		}
		return r
	}
	first := build([]int{0, 1, 2, 3, 4})
	second := build([]int{4, 3, 2, 1, 0})
	if a, b := gather(t, first), gather(t, second); a != b {
		t.Errorf("registration order leaked into exposition:\n a: %q\n b: %q", a, b)
	}

	var ja, jb strings.Builder
	if err := first.WriteJSON(&ja); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := second.WriteJSON(&jb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if ja.String() != jb.String() {
		t.Errorf("JSON exposition depends on registration order")
	}
}

// TestJSONExposition checks the JSON mirror parses and carries the same
// values as the sources report.
func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	counter(r, "reqs_total", "Requests.", 11, L("op", "search"))
	gauge(r, "in_flight", "In flight.", 2)
	h := histogram(r, "lat_seconds", "Latency.")
	h.Observe(5 * time.Nanosecond)
	histogram(r, "idle_seconds", "Never observed.")

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var families []struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  *float64          `json:"value"`
			Count  *uint64           `json:"count"`
			P50    *float64          `json:"p50_seconds"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &families); err != nil {
		t.Fatalf("exposed JSON does not parse: %v\n%s", err, sb.String())
	}
	byName := map[string]int{}
	for i, f := range families {
		byName[f.Name] = i
	}
	if f := families[byName["reqs_total"]]; *f.Series[0].Value != 11 || f.Series[0].Labels["op"] != "search" {
		t.Errorf("reqs_total series = %+v", f.Series[0])
	}
	if f := families[byName["in_flight"]]; *f.Series[0].Value != 2 {
		t.Errorf("in_flight = %+v", f.Series[0])
	}
	if f := families[byName["lat_seconds"]]; *f.Series[0].Count != 1 || *f.Series[0].P50 != 5e-9 {
		t.Errorf("lat_seconds = %+v", f.Series[0])
	}
	// Empty summary quantiles are JSON null (NaN is unrepresentable).
	if f := families[byName["idle_seconds"]]; f.Series[0].P50 != nil {
		t.Errorf("idle_seconds p50 = %v, want null", *f.Series[0].P50)
	}
}

// TestRegistrationContracts pins the loud-failure contract for wiring
// mistakes: bad names, duplicate series, kind conflicts.
func TestRegistrationContracts(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	mustPanic("invalid metric name", func() { counter(r, "9bad", "x", 0) })
	mustPanic("invalid label key", func() { counter(r, "ok_total", "x", 0, L("9k", "v")) })
	mustPanic("duplicate label key", func() { counter(r, "ok2_total", "x", 0, L("k", "a"), L("k", "b")) })
	counter(r, "dup_total", "x", 0, L("op", "a"))
	mustPanic("duplicate series", func() { counter(r, "dup_total", "x", 0, L("op", "a")) })
	mustPanic("kind conflict", func() { gauge(r, "dup_total", "x", 0, L("op", "b")) })
}

// TestConcurrentUpdatesAndScrapes exercises source updates racing with
// exposition under -race.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	var g atomic.Int64
	r.CounterFunc("c_total", "C.", c.Load)
	r.GaugeFunc("g", "G.", func() float64 { return float64(g.Load()) })
	h := histogram(r, "h_seconds", "H.")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				c.Add(1)
				g.Add(1)
				g.Add(-1)
				h.Observe(time.Duration(j))
			}
		}()
	}
	var swg sync.WaitGroup
	swg.Add(1)
	go func() {
		defer swg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	swg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if g.Load() != 0 {
		t.Fatalf("gauge = %v, want 0", g.Load())
	}
}

// TestGaugeNonFinite pins the text rendering of the IEEE edge values.
func TestGaugeNonFinite(t *testing.T) {
	r := NewRegistry()
	gauge(r, "weird", "W.", math.NaN(), L("v", "nan"))
	gauge(r, "weird", "W.", math.Inf(1), L("v", "pinf"))
	want := "# HELP weird W.\n# TYPE weird gauge\n" +
		"weird{v=\"nan\"} NaN\n" +
		"weird{v=\"pinf\"} +Inf\n"
	if got := gather(t, r); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}
