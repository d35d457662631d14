// Package obs is the repository's runtime metrics registry: a
// dependency-free substrate for counters, gauges and latency histograms
// that the serving layer exposes over its admin HTTP endpoint. The paper's
// whole experimental argument rests on measuring node accesses and buffer
// behavior (Section 3); this package makes those same measurements
// continuously visible on a running server instead of only at the end of a
// benchmark run.
//
// Design:
//
//   - A Registry holds metric families; a family holds one or more series
//     distinguished by label sets. Registration binds a source the calling
//     layer already keeps (CounterFunc, GaugeFunc, HistogramFunc), sampled
//     at exposition time: every series the server, frame and router export
//     reads an atomic or a histogram that layer keeps, so the registry
//     holds no value of its own.
//   - Histograms ride on internal/histo's lock-free log-bucketed
//     histogram and are exposed as Prometheus summaries (quantile series
//     plus _sum and _count), in seconds per Prometheus convention.
//   - Exposition is deterministic: families are written in name order,
//     series in label order, labels sorted by key at registration. Equal
//     registry state always serializes to identical bytes, which is what
//     the exposition tests (and strlint's maporder check) pin down.
//
// The package imports only the standard library and internal/histo, so
// any layer may depend on it without entangling the build core.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"strtree/internal/histo"
)

// Kind is a metric family's type, named after the Prometheus exposition
// types it renders as.
type Kind uint8

// The metric kinds.
const (
	KindCounter Kind = iota // monotonically increasing uint64
	KindGauge               // instantaneous float64
	KindSummary             // latency digest: quantiles, sum, count
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Label is one name/value pair attached to a series. Values may contain
// any UTF-8; exposition escapes them.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// summaryQuantiles are the quantiles every summary exposes, ascending as
// histo.Quantiles requires.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

// series is one labeled instance inside a family.
type series struct {
	labels []Label // sorted by key at registration
	key    string  // canonical label signature, the sort key

	// Exactly one of the following backs the series, per the family kind.
	counterFn   func() uint64
	gaugeFn     func() float64
	hist        *histo.Histogram // summaries only
	scaleToSecs bool             // render histogram nanoseconds as seconds
}

// family is all series sharing one metric name. Both fields below are
// written only under the owning Registry's mu.
type family struct {
	name   string
	help   string
	kind   Kind
	byKey  map[string]*series // duplicate detection
	sorted []*series          // insertion-sorted by canonical label key
}

// Registry is a set of metric families. All methods are safe for
// concurrent use; the sources a series samples are the registering
// layer's, and their updates never take the registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
	ordered  []*family          // guarded by mu; insertion-sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// validName matches the Prometheus metric-name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validLabelKey matches the Prometheus label-name grammar (no colons).
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// canonLabels sorts a copy of the labels by key and builds the series'
// canonical signature. Duplicate keys and invalid names are registration
// errors.
func canonLabels(name string, labels []Label) ([]Label, string) {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validLabelKey(l.Key) {
			//strlint:ignore panics documented contract: metric registration with a bad label key is a programming error
			panic(fmt.Sprintf("obs: metric %s: invalid label key %q", name, l.Key))
		}
		if i > 0 && ls[i-1].Key == l.Key {
			//strlint:ignore panics documented contract: duplicate label keys on one series are a programming error
			panic(fmt.Sprintf("obs: metric %s: duplicate label key %q", name, l.Key))
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
		b.WriteByte(',')
	}
	return ls, b.String()
}

// register adds a series, creating its family on first use. Registering
// the same name with a different kind, or the same name+labels twice, is a
// programming error and panics — metrics are wired once at startup, so
// failing loudly there beats silently double-counting at runtime.
func (r *Registry) register(name, help string, kind Kind, s *series) {
	if !validName(name) {
		//strlint:ignore panics documented contract: an invalid metric name is a programming error
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		r.families[name] = f
		// Keep the exposition order ready-made: families insertion-sorted
		// by name, so snapshot never ranges over the map.
		j := sort.Search(len(r.ordered), func(j int) bool { return r.ordered[j].name >= name })
		r.ordered = append(r.ordered, nil)
		copy(r.ordered[j+1:], r.ordered[j:])
		r.ordered[j] = f
	}
	if f.kind != kind {
		//strlint:ignore panics documented contract: re-registering a name under a different kind is a programming error
		panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", name, kind, f.kind))
	}
	if _, dup := f.byKey[s.key]; dup {
		//strlint:ignore panics documented contract: registering the same name+labels twice is a programming error
		panic(fmt.Sprintf("obs: metric %s{%s} registered twice", name, s.key))
	}
	f.byKey[s.key] = s
	// Insertion-sort into the exposition order so writers never sort.
	i := sort.Search(len(f.sorted), func(i int) bool { return f.sorted[i].key >= s.key })
	f.sorted = append(f.sorted, nil)
	copy(f.sorted[i+1:], f.sorted[i:])
	f.sorted[i] = s
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time. fn must be monotone and safe for concurrent use — the
// shape of an existing atomic counter's Load.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	ls, key := canonLabels(name, labels)
	r.register(name, help, KindCounter, &series{labels: ls, key: key, counterFn: fn})
}

// GaugeFunc registers a gauge sampled from fn at exposition time. fn must
// be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	ls, key := canonLabels(name, labels)
	r.register(name, help, KindGauge, &series{labels: ls, key: key, gaugeFn: fn})
}

// HistogramFunc registers an existing histogram — the serving layer's
// per-op latency histograms, for example — as a summary series in seconds.
// The histogram keeps its single owner; the registry only reads it.
func (r *Registry) HistogramFunc(name, help string, h *histo.Histogram, labels ...Label) {
	ls, key := canonLabels(name, labels)
	r.register(name, help, KindSummary, &series{labels: ls, key: key, hist: h, scaleToSecs: true})
}

// snapshot returns the families in exposition (name) order with their
// series slices copied, so writers run without the registry lock. The
// order comes from the insertion-sorted r.ordered slice, never from map
// iteration.
func (r *Registry) snapshot() []familySnap {
	r.mu.Lock()
	out := make([]familySnap, 0, len(r.ordered))
	for _, f := range r.ordered {
		out = append(out, familySnap{
			name: f.name, help: f.help, kind: f.kind,
			series: append([]*series(nil), f.sorted...),
		})
	}
	r.mu.Unlock()
	return out
}

// familySnap is one family frozen for exposition.
type familySnap struct {
	name   string
	help   string
	kind   Kind
	series []*series
}

// summarySample is a summary series' digest at exposition time.
type summarySample struct {
	count     uint64
	sum       float64   // seconds
	quantiles []float64 // seconds, aligned with summaryQuantiles; NaN when empty
}

// sampleSummary digests a histogram series. Quantiles of an empty
// histogram are histo.NoData; they surface as NaN, which Prometheus
// defines as "no observation" for summary quantiles.
func (s *series) sampleSummary() summarySample {
	qs := s.hist.Quantiles(summaryQuantiles...)
	out := summarySample{
		count:     uint64(s.hist.Count()),
		sum:       s.hist.Sum().Seconds(),
		quantiles: make([]float64, len(qs)),
	}
	for i, q := range qs {
		if q == histo.NoData {
			out.quantiles[i] = math.NaN()
			continue
		}
		out.quantiles[i] = time.Duration(q).Seconds()
	}
	return out
}
