// Package extsort provides external-memory sorting of R-tree entries, so
// STR packing scales past main memory — the regime the paper targets
// ("data sets likely to be used by near term future applications" exceed
// the buffer, and packing is preprocessing over files).
//
// The implementation is the classical two-phase external merge sort,
// exposed as one pull-based primitive: Ingest reads a source into sorted
// runs and returns a Stream over their k-way merge. During ingest the loop
// keeps streaming while a bounded worker pool sorts (with the psort kernel
// every in-memory packing order uses) and spills completed runs; run
// buffers are recycled through a free list. During the merge each run gets
// a background prefetch reader that keeps a couple of decoded batches
// ahead of the k-way heap. Entries are serialized with the same
// fixed-width binary layout the node pages use; this package is the only
// one that writes entries to temporary files.
//
// Determinism: run boundaries depend only on the input order and the run
// size, runs are sorted stably, and the merge breaks key ties by run
// sequence number — so the merged stream is the stable sort of the whole
// input by key: identical for every Workers setting and every run size,
// and identical to psort.ByCenter over the same entries in memory.
package extsort

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
)

// Key selects what a sort orders by. The one key is the center coordinate
// along an axis, the ordering every STR phase uses.
type Key struct{ axis int }

// ByCenter orders entries by the center coordinate of one axis.
func ByCenter(axis int) Key { return Key{axis: axis} }

func (k Key) of(e *node.Entry) uint64 { return psort.Float64Key(e.Rect.CenterAxis(k.axis)) }

// prefetchBatch is how many decoded entries one merge read-ahead batch
// holds; each run keeps up to two batches in flight. Rectangle storage is
// carved from arrays of the same number of entries.
const prefetchBatch = 512

// Sorter sorts streams of entries, spilling to disk when a run exceeds
// the in-memory budget.
type Sorter struct {
	dims    int
	runSize int
	tmpDir  string

	// Workers bounds the goroutines that sort and spill completed runs
	// while ingest continues (< 1 means 1). The emitted order is
	// byte-for-byte identical for every setting; only wall time changes.
	Workers int

	// Cumulative activity counters across every sort on this Sorter
	// (external builds reuse one Sorter for the x phase and every slab's
	// y phase). Atomics, so a monitoring goroutine may snapshot them with
	// Stats while a sort runs.
	sorts         atomic.Uint64
	entriesSorted atomic.Uint64
	runsSpilled   atomic.Uint64
	merges        atomic.Uint64
}

// Stats is a snapshot of a Sorter's cumulative activity. RunsSpilled is
// the number of sorted runs written to temp files; a sort whose input fit
// in one in-memory run spills nothing and performs no merge, so
// RunsSpilled == 0 with Sorts > 0 means the external machinery was never
// needed.
type Stats struct {
	// Sorts counts sorts whose ingest completed (Ingest returned a Stream).
	Sorts uint64
	// EntriesSorted is the total entries ingested across all sorts.
	EntriesSorted uint64
	// RunsSpilled is the number of sorted runs written to temp files.
	RunsSpilled uint64
	// Merges counts k-way merge phases started (one per sort that spilled).
	Merges uint64
}

// Stats snapshots the sorter's cumulative counters. Fields are read
// independently; the snapshot is coherent only to within in-flight sorts.
func (s *Sorter) Stats() Stats {
	return Stats{
		Sorts:         s.sorts.Load(),
		EntriesSorted: s.entriesSorted.Load(),
		RunsSpilled:   s.runsSpilled.Load(),
		Merges:        s.merges.Load(),
	}
}

// NewSorter creates a sorter for entries of the given dimensionality that
// keeps at most runSize entries in memory per run. Temporary run files
// are created in tmpDir ("" means the OS default).
func NewSorter(dims, runSize int, tmpDir string) (*Sorter, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("extsort: invalid dims %d", dims)
	}
	if runSize < 2 {
		return nil, fmt.Errorf("extsort: run size %d too small", runSize)
	}
	return &Sorter{dims: dims, runSize: runSize, tmpDir: tmpDir}, nil
}

// entrySize is the on-disk size of one entry.
func (s *Sorter) entrySize() int { return 16*s.dims + 8 }

func (s *Sorter) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

// rectSlab hands out rectangle storage carved from arrays of
// prefetchBatch rectangles that are never handed out twice: ingest and
// decode allocate once per batch instead of twice per entry, and an entry
// built on a slab stays valid for as long as anyone holds it.
type rectSlab struct {
	dims int
	buf  []float64
}

func (a *rectSlab) rect() geom.Rect {
	d := a.dims
	if cap(a.buf)-len(a.buf) < 2*d {
		a.buf = make([]float64, 0, 2*d*prefetchBatch)
	}
	k := len(a.buf)
	a.buf = a.buf[:k+2*d]
	return geom.Rect{Min: a.buf[k : k+d : k+d], Max: a.buf[k+d : k+2*d : k+2*d]}
}

// spillRun sorts a completed run and writes it to a fresh temp file. On
// any failure the temp file is closed and removed before returning; the
// caller only ever owns a fully written file.
func (s *Sorter) spillRun(run []node.Entry, key Key) (_ *os.File, err error) {
	psort.ByCenter(run, key.axis, 1)
	f, err := os.CreateTemp(s.tmpDir, "extsort-run-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.Close())
			if rmErr := os.Remove(f.Name()); rmErr != nil {
				err = errors.Join(err, rmErr)
			}
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	buf := make([]byte, s.entrySize())
	for i := range run {
		s.encode(&run[i], buf)
		if _, werr := w.Write(buf); werr != nil {
			return nil, werr
		}
	}
	if ferr := w.Flush(); ferr != nil {
		return nil, ferr
	}
	return f, nil
}

// Stream is a sorted sequence: the k-way merge of one sort's spilled runs
// (or its single in-memory run). It yields each entry once, on storage it
// never reuses, so the consumer may keep what Next returns. A Stream must
// be closed, on every path, to release its run files and readers.
type Stream struct {
	total   int
	emitted int
	mem     []node.Entry // the sorted input when it fit in one run
	files   []*os.File   // spilled runs, in spill order
	readers []*prefetch  // one per file
	rwg     sync.WaitGroup
	key     Key
	heap    mergeHeap
}

// Len is the number of entries the stream holds in total, known as soon
// as Ingest returns.
func (st *Stream) Len() int { return st.total }

// spill is one run handed to the worker pool; f and err are settled once
// the pool's WaitGroup is done.
type spill struct {
	f   *os.File
	err error
}

// Ingest consumes entries from next (until it reports false or an error)
// into sorted runs and returns the stream of their merge. Entries are
// copied on ingest, so next may reuse the storage of what it returns.
// next is always called from the calling goroutine — the internal
// concurrency never touches it. On error every run file is already gone.
func (s *Sorter) Ingest(key Key, next func() (node.Entry, bool, error)) (_ *Stream, err error) {
	st := &Stream{key: key}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.Close())
		}
	}()

	// Run generation. The loop below keeps calling next while up to
	// `workers` goroutines sort and spill completed runs.
	workers := s.workers()
	var (
		wg     sync.WaitGroup
		spills []*spill // by run sequence number: merge order = spill order
		failed atomic.Bool
	)
	sem := make(chan struct{}, workers)
	freeBufs := make(chan []node.Entry, workers+1) // every run in flight plus the one being filled
	newRun := func() []node.Entry {
		select {
		case b := <-freeBufs:
			return b
		default:
			return make([]node.Entry, 0, s.runSize)
		}
	}
	spawnSpill := func(run []node.Entry) {
		sp := &spill{}
		spills = append(spills, sp)
		wg.Add(1)
		sem <- struct{}{} // bounded pool: ingest waits only when all workers are busy
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if !failed.Load() {
				if sp.f, sp.err = s.spillRun(run, key); sp.err != nil {
					failed.Store(true)
				}
			}
			select {
			case freeBufs <- run[:0]:
			default:
			}
		}()
	}

	rects := rectSlab{dims: s.dims}
	run := newRun()
	for !failed.Load() {
		e, ok, nerr := next()
		if nerr != nil || !ok {
			err = nerr
			break
		}
		if e.Rect.Dim() != s.dims {
			err = fmt.Errorf("extsort: entry dim %d, sorter dim %d", e.Rect.Dim(), s.dims)
			break
		}
		r := rects.rect()
		copy(r.Min, e.Rect.Min)
		copy(r.Max, e.Rect.Max)
		run = append(run, node.Entry{Rect: r, Ref: e.Ref})
		st.total++
		if len(run) >= s.runSize {
			spawnSpill(run)
			run = newRun()
		}
	}
	if len(spills) > 0 && len(run) > 0 && err == nil && !failed.Load() {
		spawnSpill(run)
	}
	wg.Wait()
	for _, sp := range spills {
		if sp.f != nil {
			st.files = append(st.files, sp.f)
		}
		err = errors.Join(err, sp.err)
	}
	if err != nil {
		return nil, err
	}
	s.sorts.Add(1)
	s.entriesSorted.Add(uint64(st.total))

	// Everything fit in one in-memory run: no files, no merge.
	if len(spills) == 0 {
		psort.ByCenter(run, key.axis, 1)
		st.mem = run
		return st, nil
	}
	s.runsSpilled.Add(uint64(len(spills)))
	s.merges.Add(1)

	// K-way merge with per-run read-ahead. Each run file gets a background
	// reader that stays up to two decoded batches ahead of the heap, so
	// merge CPU overlaps run I/O.
	for _, f := range st.files {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		p := &prefetch{
			batches: make(chan runBatch, 2), // the read-ahead depth
			stop:    make(chan struct{}),
		}
		st.readers = append(st.readers, p)
		st.rwg.Add(1)
		go func(f *os.File) {
			defer st.rwg.Done()
			s.readRun(f, p)
		}(f)
	}
	for src, p := range st.readers {
		e, ok, err := p.next()
		if err != nil {
			return nil, err
		}
		if ok {
			st.heap = append(st.heap, mergeItem{key: key.of(&e), src: src, entry: e})
		}
	}
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.heap.down(i)
	}
	return st, nil
}

// Next returns the next entry in order, false at the end of the stream,
// or the read error that cut a run short.
func (st *Stream) Next() (node.Entry, bool, error) {
	if st.emitted < len(st.mem) {
		st.emitted++
		return st.mem[st.emitted-1], true, nil
	}
	if len(st.heap) == 0 {
		if st.emitted != st.total {
			return node.Entry{}, false, fmt.Errorf("extsort: emitted %d of %d entries", st.emitted, st.total)
		}
		return node.Entry{}, false, nil
	}
	top := st.heap[0]
	e, ok, err := st.readers[top.src].next()
	if err != nil {
		return node.Entry{}, false, err
	}
	if ok {
		st.heap[0] = mergeItem{key: st.key.of(&e), src: top.src, entry: e}
	} else {
		last := len(st.heap) - 1
		st.heap[0] = st.heap[last]
		st.heap = st.heap[:last]
	}
	st.heap.down(0)
	st.emitted++
	return top.entry, true, nil
}

// Close stops the run readers, then closes and removes every run file,
// reporting rather than dropping close and remove failures. It may be
// called at any point of the stream, and more than once.
func (st *Stream) Close() (err error) {
	// Readers first: the files must not be closed out from under them.
	for _, p := range st.readers {
		close(p.stop)
	}
	st.rwg.Wait()
	for _, f := range st.files {
		err = errors.Join(err, f.Close())
		if rmErr := os.Remove(f.Name()); rmErr != nil {
			err = errors.Join(err, rmErr)
		}
	}
	st.readers, st.files, st.heap = nil, nil, nil
	return err
}

// Sort ingests next and drains the merged stream into emit: the push
// form of Ingest, for callers with nothing to do between entries.
func (s *Sorter) Sort(key Key, next func() (node.Entry, bool), emit func(node.Entry) error) (err error) {
	st, err := s.Ingest(key, func() (node.Entry, bool, error) {
		e, ok := next()
		return e, ok, nil
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	for {
		e, ok, err := st.Next()
		if err != nil || !ok {
			return err
		}
		if err := emit(e); err != nil {
			return err
		}
	}
}

// runBatch is one block of decoded entries handed from a prefetch reader
// to the merge loop; err terminates the run.
type runBatch struct {
	entries []node.Entry
	err     error
}

// prefetch is the merge loop's view of one run: a channel of read-ahead
// batches plus the batch currently being consumed.
type prefetch struct {
	batches chan runBatch
	stop    chan struct{}
	cur     []node.Entry
	pos     int
}

// next returns the run's next entry, blocking on the reader only when the
// read-ahead is empty.
func (p *prefetch) next() (node.Entry, bool, error) {
	for p.pos >= len(p.cur) {
		b, ok := <-p.batches
		if !ok {
			return node.Entry{}, false, nil
		}
		if b.err != nil {
			return node.Entry{}, false, b.err
		}
		p.cur, p.pos = b.entries, 0
	}
	e := p.cur[p.pos]
	p.pos++
	return e, true, nil
}

// readRun is the body of one run's prefetch goroutine: it decodes f batch
// by batch into p.batches until the run ends, a read fails, or p.stop is
// closed.
func (s *Sorter) readRun(f *os.File, p *prefetch) {
	defer close(p.batches)
	r := bufio.NewReaderSize(f, 1<<16)
	buf := make([]byte, s.entrySize())
	rects := rectSlab{dims: s.dims}
	for {
		entries := make([]node.Entry, 0, prefetchBatch)
		var err error
		for len(entries) < prefetchBatch && err == nil {
			if _, err = io.ReadFull(r, buf); err == nil {
				entries = append(entries, s.decode(buf, rects.rect()))
			}
		}
		batch := runBatch{entries: entries}
		if err != nil && err != io.EOF {
			batch = runBatch{err: err}
		} else if len(entries) == 0 {
			return
		}
		select {
		case p.batches <- batch:
		case <-p.stop:
			return
		}
		if err != nil {
			return // the run is over
		}
	}
}

func (s *Sorter) encode(e *node.Entry, buf []byte) {
	off := 0
	for d := 0; d < s.dims; d++ {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Min[d]))
		off += 8
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Max[d]))
		off += 8
	}
	binary.LittleEndian.PutUint64(buf[off:], e.Ref)
}

// decode is encode's inverse, into rectangle storage the caller provides.
func (s *Sorter) decode(buf []byte, r geom.Rect) node.Entry {
	off := 0
	for d := 0; d < s.dims; d++ {
		r.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		r.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return node.Entry{Rect: r, Ref: binary.LittleEndian.Uint64(buf[off:])}
}

// mergeItem is one head-of-run entry in the merge heap.
type mergeItem struct {
	key   uint64
	src   int // run sequence number, the tie-break that makes the merge stable
	entry node.Entry
}

// mergeHeap is a binary min-heap on (key, src) — a strict total order, so
// the merged sequence does not depend on the heap's shape.
type mergeHeap []mergeItem

func (h mergeHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].src < h[j].src
}

// down restores the heap below position i.
func (h mergeHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
