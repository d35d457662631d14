// Package extsort sorts R-tree entries externally, so STR packing scales
// past main memory — the regime the paper targets ("data sets likely to be
// used by near term future applications" exceed the buffer).
//
// It is the classical two-phase external merge sort behind one pull-based
// primitive: Ingest reads a source into sorted runs and returns a Stream
// over their k-way merge. It sorts page records (node.EntrySize(dims)
// bytes, the layout pages store) and never decodes one: a run is one record
// array, sorted by the psort kernel and spilled with one Write by a bounded
// worker pool while ingest keeps streaming; each spilled run's prefetch
// reader keeps raw record batches ahead of a heap of (key, run) pairs. Only
// this package writes entries to temporary files.
//
// Determinism: runs are cut by input order and run size alone and sorted
// stably, and the merge breaks key ties by run sequence number, so the
// stream is the stable sort of the input by key at every Workers setting
// and run size: psort.Perm.SortByCenter's order of the same records.
package extsort

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"strtree/internal/node"
	"strtree/internal/psort"
)

// Key selects what a sort orders by. The one key is the center coordinate
// along an axis, the ordering every STR phase uses.
type Key struct{ axis int }

// ByCenter orders entries by the center coordinate of one axis.
func ByCenter(axis int) Key { return Key{axis: axis} }

// of keys the record rec starts with by its centre, as psort.Perm does.
func (k Key) of(rec []byte) uint64 {
	lo, hi := node.RecordWord(rec, 2*k.axis), node.RecordWord(rec, 2*k.axis+1)
	return psort.Float64Key(lo + (hi-lo)/2)
}

// prefetchBatch is how many records one merge read-ahead batch holds; each
// run keeps up to two batches in flight.
const prefetchBatch = 512

// Sorter sorts streams of page records, spilling to disk when a run exceeds
// the in-memory budget.
type Sorter struct {
	dims    int
	runSize int
	tmpDir  string

	// Workers bounds the goroutines that sort and spill completed runs
	// while ingest continues (< 1 means 1). The emitted order is
	// byte-for-byte identical for every setting; only wall time changes.
	Workers int

	// spare holds sorted runs' arrays for any sort's next run, so one is
	// allocated only when none is spare: 8 slots cover 7 Workers' runs.
	spare chan []byte

	// Cumulative counters across every sort on this Sorter (a build reuses
	// one for every axis and slab). Atomics, so a monitoring goroutine may
	// snapshot them with Stats while a sort runs.
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

// NewSorter creates a sorter for records of the given dimensionality that
// keeps at most runSize records in memory per run. Temporary run files
// are created in tmpDir ("" means the OS default).
func NewSorter(dims, runSize int, tmpDir string) (*Sorter, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("extsort: invalid dims %d", dims)
	}
	if runSize < 2 {
		return nil, fmt.Errorf("extsort: run size %d too small", runSize)
	}
	return &Sorter{dims: dims, runSize: runSize, tmpDir: tmpDir, spare: make(chan []byte, 8)}, nil
}

func (s *Sorter) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

// getRun returns a spare run array, else nil, which grows as the run fills.
func (s *Sorter) getRun() []byte {
	select {
	case run := <-s.spare:
		return run[:0]
	default:
		return nil
	}
}

// sortRun returns the records of run in key order, stably, in a new array,
// and offers run's array to the next run.
func (s *Sorter) sortRun(run []byte, key Key) []byte {
	p := psort.NewPerm(run, s.dims)
	p.SortByCenter(0, p.Len(), key.axis, 1)
	sorted := p.Apply(1)
	select {
	case s.spare <- run:
	default:
	}
	return sorted
}

// spillRun sorts a completed run and writes it to a fresh temp file. On
// any failure the temp file is closed and removed before returning; the
// caller only ever owns a fully written file.
func (s *Sorter) spillRun(run []byte, key Key) (_ *os.File, err error) {
	sorted := s.sortRun(run, key)
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
	if _, err = f.Write(sorted); err != nil {
		return nil, err
	}
	return f, nil
}

// Stream is a sorted sequence: the k-way merge of one sort's spilled runs,
// or its in-memory run as the one batch of a run without a file; the zero
// Stream is empty. It must be closed, on every path, to release its files.
type Stream struct {
	size    int // bytes per record
	total   int
	emitted int
	files   []*os.File  // spilled runs, in spill order
	readers []*prefetch // one per run
	rwg     sync.WaitGroup
	key     Key
	heap    mergeHeap
}

// Len is the number of records the stream holds in total, known as soon
// as Ingest returns.
func (st *Stream) Len() int { return st.total }

// spill is one run handed to the worker pool; f and err are settled once
// the pool's WaitGroup is done.
type spill struct {
	f   *os.File
	err error
}

// Ingest consumes page records from next (until it reports false or an
// error) into sorted runs and returns the stream of their merge. Records are
// copied on ingest, so next may reuse its buffer; one of the wrong length is
// an error. next is only called from the calling goroutine. On error every
// run file is already gone.
func (s *Sorter) Ingest(key Key, next func() ([]byte, bool, error)) (_ *Stream, err error) {
	size := node.EntrySize(s.dims)
	st := &Stream{size: size, key: key}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.Close())
		}
	}()

	// The loop keeps calling next while up to `workers` goroutines spill.
	var (
		wg     sync.WaitGroup
		spills []*spill // by run sequence number: merge order = spill order
		failed atomic.Bool
	)
	sem := make(chan struct{}, s.workers())
	spawnSpill := func(run []byte) {
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
		}()
	}

	run, full := s.getRun(), s.runSize*size
	for !failed.Load() {
		rec, ok, nerr := next()
		if nerr != nil || !ok {
			err = nerr
			break
		}
		if len(rec) != size {
			err = fmt.Errorf("extsort: record of %d bytes, a %d-D sorter's are %d", len(rec), s.dims, size)
			break
		}
		if cap(run)-len(run) < size {
			// Double, up to a full run: append's gentler growth of a large
			// slice would copy a run five times over on its way up.
			run = slices.Grow(run, min(max(cap(run), prefetchBatch*size), full-len(run)))
		}
		run = append(run, rec...)
		st.total++
		if len(run) >= full {
			spawnSpill(run)
			run = s.getRun()
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

	if len(spills) == 0 {
		// One in-memory run: no file, no reader, one batch.
		p := newPrefetch()
		p.batches <- runBatch{recs: s.sortRun(run, key)}
		close(p.batches)
		st.readers = append(st.readers, p)
	} else {
		s.runsSpilled.Add(uint64(len(spills)))
		s.merges.Add(1)
	}

	// K-way merge with per-run read-ahead. Each run file gets a background
	// reader that stays up to two batches ahead of the heap, so merge CPU
	// overlaps run I/O.
	for _, f := range st.files {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		p := newPrefetch()
		st.readers = append(st.readers, p)
		st.rwg.Add(1)
		go func(f *os.File) {
			defer st.rwg.Done()
			p.read(f, size)
		}(f)
	}
	for src, p := range st.readers {
		ok, err := p.advance(size)
		if err != nil {
			return nil, err
		}
		if ok {
			st.heap = append(st.heap, mergeItem{key: key.of(p.head(size)), src: src})
		}
	}
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.heap.down(i)
	}
	return st, nil
}

// Next returns the next record in order, false at the end of the stream,
// or the read error that cut a run short. The stream never reuses the
// storage of a record it returned.
func (st *Stream) Next() ([]byte, bool, error) {
	if len(st.heap) == 0 {
		if st.emitted != st.total {
			return nil, false, fmt.Errorf("extsort: emitted %d of %d records", st.emitted, st.total)
		}
		return nil, false, nil
	}
	top := &st.heap[0]
	p := st.readers[top.src]
	rec := p.head(st.size)
	ok, err := p.advance(st.size)
	if err != nil {
		return nil, false, err
	}
	if ok {
		top.key = st.key.of(p.head(st.size))
	} else {
		last := len(st.heap) - 1
		st.heap[0] = st.heap[last]
		st.heap = st.heap[:last]
	}
	st.heap.down(0)
	st.emitted++
	return rec, true, nil
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

// runBatch is one block of whole records handed from a prefetch reader to
// the merge loop; err terminates the run.
type runBatch struct {
	recs []byte
	err  error
}

// prefetch is the merge loop's view of one run: a channel of read-ahead
// batches and the rest of the batch being consumed, the run's head record
// first.
type prefetch struct {
	batches chan runBatch
	stop    chan struct{}
	batch   []byte
}

func newPrefetch() *prefetch {
	return &prefetch{batches: make(chan runBatch, 2) /* the read-ahead depth */, stop: make(chan struct{})}
}

// head returns the run's head record.
func (p *prefetch) head(size int) []byte { return p.batch[:size:size] }

// advance drops the run's head record (none on the first call), waiting on
// the reader only when the read-ahead is empty; false at the run's end.
func (p *prefetch) advance(size int) (bool, error) {
	if len(p.batch) > 0 {
		p.batch = p.batch[size:]
	}
	for len(p.batch) == 0 {
		b, ok := <-p.batches
		if !ok {
			return false, nil
		}
		if b.err != nil {
			return false, b.err
		}
		p.batch = b.recs
	}
	return true, nil
}

// read is a run file's prefetch goroutine: it sends f's records, batch by
// batch, until the run ends, a read fails, or p.stop is closed.
func (p *prefetch) read(f *os.File, size int) {
	defer close(p.batches)
	for {
		buf := make([]byte, prefetchBatch*size)
		n, err := io.ReadFull(f, buf)
		if err == io.EOF {
			return
		}
		if err == io.ErrUnexpectedEOF && n%size == 0 {
			err = nil // the run's last batch; the next read reports EOF
		}
		select {
		case p.batches <- runBatch{recs: buf[:n], err: err}:
		case <-p.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// mergeItem is one run's place in the merge heap: its head record's key.
type mergeItem struct {
	key uint64
	src int // run sequence number, the tie-break that makes the merge stable
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
