package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"strtree/internal/buffer"
	"strtree/internal/node"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// Tracing from outside. The layers carry no spans of their own, and this
// issue may not add any, so every span is recorded in this directory,
// around a call into a layer's public functions: storage.Pager and
// buffer.Manager are interfaces, which lets timingPager and timingManager
// interpose at those two boundaries; rtree.Orderer is a third. Everything
// between two boundaries (rtree traversal and the node kernels it calls
// directly) is one span's self time, which the probes then split.

// spanKind names the boundary a span was recorded at.
type spanKind uint8

const (
	spOp        spanKind = iota // one tape op: the call into rtree.Tree
	spFetch                     // buffer.Manager.Fetch
	spFetchMut                  // buffer.Manager.FetchMut
	spCreate                    // buffer.Manager.Create
	spFlush                     // buffer.Manager.FlushAll
	spRead                      // storage.Pager.ReadPage
	spWrite                     // storage.Pager.WritePage
	spSync                      // storage.Pager.Sync
	spBuild                     // one whole traced build
	spConvert                   // Item -> Entry conversion (the facade's work)
	spOrder                     // rtree.Orderer.Order (pack + psort)
	spAlloc                     // storage.Pager.Alloc (extends the file)
	spHopTree                   // serve ladder: the request run on the shard trees directly
	spHopShard                  // serve ladder: client -> shard server(s), one after another
	spHopRouter                 // serve ladder: client -> router -> shard server(s)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"rtree.op", "buffer.fetch", "buffer.fetchmut", "buffer.create", "buffer.flush",
	"storage.read", "storage.write", "storage.sync",
	"build", "strtree.convert", "pack.order", "storage.alloc",
	"ladder.tree", "ladder.shard", "ladder.router",
}

// layer groups span kinds into the rows of the reconciliation table.
type layer uint8

const (
	layStorage layer = iota
	layBuffer
	layRtree // rtree traversal and the node kernels it calls
	layPack
	layFacade
	layServe // server, wire and router, on the serve ladder
	numLayers
)

var layerNames = [numLayers]string{"storage", "buffer", "rtree+node", "pack+psort", "strtree", "server+router"}

var spanLayer = [numSpanKinds]layer{
	spOp: layRtree, spFetch: layBuffer, spFetchMut: layBuffer, spCreate: layBuffer, spFlush: layBuffer,
	spRead: layStorage, spWrite: layStorage, spSync: layStorage,
	spBuild: layRtree, spConvert: layFacade, spOrder: layPack, spAlloc: layStorage,
	spHopTree: layRtree, spHopShard: layServe, spHopRouter: layServe,
}

// span is one timed call. Spans of one tape op share Op; Parent is the
// index of the span that caused this one (-1 for a root).
type span struct {
	Kind       spanKind
	Arg        uint8 // the op's kind for spOp spans
	Op         int32
	Parent     int32
	Start, End int64 // nanoseconds since the tracer's epoch
}

// tracer records spans into a preallocated slice while it is switched
// on. The mutex exists for the build workload, whose write-behind goroutine
// reaches the pager concurrently with the packer; its cost is part of the
// measured per-span overhead (timerCostNs).
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span // guarded by mu
	on      bool
	flat    bool  // concurrent mode: every span hangs off root, no nesting
	root    int32 // guarded by mu
	cur     int32 // guarded by mu; innermost open span of the driving goroutine
	op      int32
	arg     uint8
	dropped int // guarded by mu
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), cur: -1, root: -1}
}

// begin opens a span and returns its index, or -1 when tracing is off or
// the preallocated slice is full.
func (t *tracer) begin(k spanKind) int32 {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		t.mu.Unlock()
		return -1
	}
	parent := t.cur
	if t.flat {
		parent = t.root
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Kind: k, Arg: t.arg, Op: t.op, Parent: parent, Start: int64(time.Since(t.epoch))})
	if !t.flat {
		t.cur = i
	}
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = int64(time.Since(t.epoch))
	if !t.flat {
		t.cur = t.spans[i].Parent
	}
	t.mu.Unlock()
}

// spanSelf returns every span's self time: its duration minus the part of
// that interval its child spans cover. Children may overlap each other
// (the build's concurrent page writes), so coverage is the length of the
// union of the child intervals, clipped to the parent.
func spanSelf(spans []span) []int64 {
	// Children in start order per parent: spans are appended at begin
	// under the tracer's lock, so index order is start order.
	counts := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.Parent >= 0 {
			counts[s.Parent+1]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	kids := make([]int32, counts[len(spans)])
	next := append([]int32(nil), counts[:len(spans)]...)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[next[s.Parent]] = int32(i)
			next[s.Parent]++
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered, reach := int64(0), s.Start
		for _, k := range kids[counts[i]:counts[i+1]] {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfTimes sums spanSelf per span kind.
func selfTimes(spans []span) [numSpanKinds]int64 {
	var out [numSpanKinds]int64
	for i, ns := range spanSelf(spans) {
		out[spans[i].Kind] += ns
	}
	return out
}

// layerSelf folds span-kind self times into reconciliation rows.
func layerSelf(byKind [numSpanKinds]int64) [numLayers]int64 {
	var out [numLayers]int64
	for k, ns := range byKind {
		out[spanLayer[k]] += ns
	}
	return out
}

// spanDurations collects the durations (ns) of every span of one kind,
// optionally restricted to one Arg.
func spanDurations(spans []span, k spanKind, arg int) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Kind == k && (arg < 0 || int(s.Arg) == arg) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func countSpans(spans []span, k spanKind) int {
	n := 0
	for _, s := range spans {
		if s.Kind == k {
			n++
		}
	}
	return n
}

// writeTrace saves the spans as one JSON document. It is written by hand
// with a buffered writer: a traced run holds a few hundred thousand spans.
func writeTrace(path, workload string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "{\"workload\":%q,\"epoch_unix_ns\":%d,\"dropped\":%d,\"spans\":[", workload, t.epoch.UnixNano(), t.dropped)
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"id\":"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ",\"name\":\""...)
		buf = append(buf, spanNames[s.Kind]...)
		buf = append(buf, "\",\"op\":"...)
		buf = strconv.AppendInt(buf, int64(s.Op), 10)
		if s.Kind == spOp {
			buf = append(buf, ",\"kind\":\""...)
			buf = append(buf, opKind(s.Arg).String()...)
			buf = append(buf, '"')
		}
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, ",\"start_ns\":"...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, ",\"end_ns\":"...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, '}')
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("\n]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingPager records a span around every page transfer and counts them.
type timingPager struct {
	storage.Pager
	tr                   *tracer
	reads, writes, syncs int64 // guarded by mu
	mu                   sync.Mutex
}

func (p *timingPager) ReadPage(id storage.PageID, buf []byte) error {
	s := p.tr.begin(spRead)
	err := p.Pager.ReadPage(id, buf)
	p.tr.end(s)
	p.mu.Lock()
	p.reads++
	p.mu.Unlock()
	return err
}

func (p *timingPager) WritePage(id storage.PageID, buf []byte) error {
	s := p.tr.begin(spWrite)
	err := p.Pager.WritePage(id, buf)
	p.tr.end(s)
	p.mu.Lock()
	p.writes++
	p.mu.Unlock()
	return err
}

func (p *timingPager) Alloc() (storage.PageID, error) {
	s := p.tr.begin(spAlloc)
	id, err := p.Pager.Alloc()
	p.tr.end(s)
	return id, err
}

func (p *timingPager) Sync() error {
	s := p.tr.begin(spSync)
	err := p.Pager.Sync()
	p.tr.end(s)
	p.mu.Lock()
	p.syncs++
	p.mu.Unlock()
	return err
}

func (p *timingPager) counts() (reads, writes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reads, p.writes
}

// timingManager records a span around every pin and flush, and derives
// the node layer's work count from the pages that pass through it: each
// fetched node page offers its entry count to the traversal's scan.
// Release and ReleaseMut are not spanned; their cost stays with the
// caller's self time.
type timingManager struct {
	buffer.Manager
	tr *tracer
	// nodeFetches and entriesSeen count every fetched node page and the
	// entries on it. Single-goroutine workloads only.
	nodeFetches, entriesSeen int64
}

func (m *timingManager) note(f *buffer.Frame) {
	page := f.Data()
	if len(page) >= node.HeaderSize && binary.LittleEndian.Uint16(page[0:]) == node.Magic {
		m.nodeFetches++
		m.entriesSeen += int64(binary.LittleEndian.Uint16(page[6:]))
	}
}

func (m *timingManager) Fetch(id storage.PageID) (*buffer.Frame, error) {
	s := m.tr.begin(spFetch)
	f, err := m.Manager.Fetch(id)
	m.tr.end(s)
	if err == nil {
		m.note(f)
	}
	return f, err
}

func (m *timingManager) FetchMut(id storage.PageID) (*buffer.Frame, error) {
	s := m.tr.begin(spFetchMut)
	f, err := m.Manager.FetchMut(id)
	m.tr.end(s)
	if err == nil {
		m.note(f)
	}
	return f, err
}

func (m *timingManager) Create() (*buffer.Frame, error) {
	s := m.tr.begin(spCreate)
	f, err := m.Manager.Create()
	m.tr.end(s)
	return f, err
}

func (m *timingManager) FlushAll() error {
	s := m.tr.begin(spFlush)
	err := m.Manager.FlushAll()
	m.tr.end(s)
	return err
}

// timingOrderer spans the packing order, the one boundary between rtree's
// bulk loader and pack/psort.
type timingOrderer struct {
	rtree.Orderer
	tr *tracer
}

func (o timingOrderer) Order(entries []node.Entry, n, level int) {
	s := o.tr.begin(spOrder)
	o.Orderer.Order(entries, n, level)
	o.tr.end(s)
}

// reconRow is one line of a reconciliation table.
type reconRow struct {
	name string
	us   float64
}

// printRecon prints the table: layer self times, their sum, the untraced
// end-to-end figure they are meant to explain, and the remainder they do
// not. It returns the remainder as a percentage of the end-to-end figure.
func printRecon(w *bufio.Writer, title, unit string, rows []reconRow, endToEnd float64) float64 {
	fmt.Fprintf(w, "\nreconciliation: %s\n", title)
	sum := 0.0
	for _, r := range rows {
		sum += r.us
	}
	sorted := append([]reconRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].us > sorted[j].us })
	for _, r := range sorted {
		share := 0.0
		if endToEnd > 0 {
			share = 100 * r.us / endToEnd
		}
		fmt.Fprintf(w, "  %-34s %12.3f %s  %6.1f%%\n", r.name, r.us, unit, share)
	}
	unexplained := 0.0
	if endToEnd > 0 {
		unexplained = 100 * (endToEnd - sum) / endToEnd
	}
	fmt.Fprintf(w, "  %-34s %12.3f %s\n", "sum of layers", sum, unit)
	fmt.Fprintf(w, "  %-34s %12.3f %s\n", "end to end (untraced)", endToEnd, unit)
	fmt.Fprintf(w, "  %-34s %12.3f %s  %6.1f%%\n", "unexplained", endToEnd-sum, unit, unexplained)
	return unexplained
}
