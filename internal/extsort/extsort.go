// Package extsort sorts R-tree entries externally, so STR packing scales
// past main memory — the regime the paper targets ("data sets likely to be
// used by near term future applications" exceed the buffer).
//
// It is the classical two-phase external merge sort behind one pull-based
// primitive: Ingest reads a source into sorted runs and returns a Stream
// over their k-way merge, and IngestStream does the same with the next n
// records of another Stream, merged straight into its runs. Spill and
// IngestStream hand a take that fits one run back unsorted, for the caller
// to sort when and where it likes (SortLone). It sorts page
// records (node.EntrySize(dims) bytes, the layout pages store) and never
// decodes one: a run is one record array, sorted by the psort kernel and
// spilled with one Write by a bounded worker pool while ingest keeps
// streaming; the merge reads each spilled run's file, a batch of raw
// records at a time, on the goroutine that pulls the stream, behind a heap
// of (key, run) pairs. Only this package writes entries to temporary files.
//
// Nothing is allocated twice while a Sorter lives: run arrays, sorted
// copies and sort pairs go back to the Sorter once a sort is done with
// them, and each spilled run reads its batches into two buffers in turn.
// A batch is overwritten, and a lone run's array handed back, only on the
// call after the one that returned records from it, so what NextRun
// returns stays valid until the next call and no longer.
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
	return psort.Float64Key(node.RecordCenter(rec, k.axis))
}

const (
	// mergeBatch is how many records one read of a spilled run fills
	// (each run holds two such batches) and one merged NextRun returns.
	mergeBatch = 512
	// chunkRecords is how many records a run's fill puts in one chunk
	// once the run's array is full.
	chunkRecords = 1 << 12
)

// Sorter sorts streams of page records, spilling to disk when a run exceeds
// the in-memory budget.
type Sorter struct {
	dims    int
	runSize int
	tmpDir  string

	// Workers bounds the goroutines that sort and spill completed runs,
	// one each, while ingest continues, and sorts an input that fits one
	// run with that many (< 1 means 1). The emitted order is byte-for-byte
	// identical for every setting; only wall time changes.
	Workers int

	// spare holds run arrays no sort needs any more — filled runs once
	// sorted, sorted runs once written or read — for any sort's next run or
	// sorted copy, and perms the sort-pair arrays of finished sorts, so
	// either is allocated only when none is spare. Eight slots hold what
	// four spill workers, the run being filled and the slabs merged and
	// sorted ahead release at once; past that an array is dropped.
	spare chan []byte
	perms chan *psort.Perm

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
	return &Sorter{dims: dims, runSize: runSize, tmpDir: tmpDir, spare: make(chan []byte, 8), perms: make(chan *psort.Perm, 8)}, nil
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

// putRun offers run's array to the next run; nothing may read or write it
// afterwards.
func (s *Sorter) putRun(run []byte) {
	select {
	case s.spare <- run:
	default:
	}
}

// sortRun returns the records of run in key order, stably, in a spare
// array, sorted on workers goroutines with spare sort pairs, and offers
// run's array to the next run.
func (s *Sorter) sortRun(run []byte, key Key, workers int) []byte {
	var p *psort.Perm
	select {
	case p = <-s.perms:
	default:
		p = new(psort.Perm)
	}
	p.Reset(run, s.dims)
	p.SortByCenter(0, p.Len(), key.axis, workers)
	sorted := p.Apply(s.getRun(), workers)
	select {
	case s.perms <- p:
	default:
	}
	s.putRun(run)
	return sorted
}

// spillRun sorts a completed run on one goroutine (Workers of them run at
// once) and writes it to a fresh temp file. On any failure the temp file is
// closed and removed before returning; the caller only ever owns a fully
// written file.
func (s *Sorter) spillRun(run []byte, key Key) (_ *os.File, err error) {
	sorted := s.sortRun(run, key, 1)
	defer s.putRun(sorted)
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
	runs    []mergeRun // in spill order
	key     Key
	heap    mergeHeap
	buf     []byte  // the records NextRun merged last
	sorter  *Sorter // a lone run's, to take its array back
	spent   []byte  // a lone run's array, back to the sorter on the next call
	err     error   // the first error the stream met; every later call returns it
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
func (s *Sorter) Ingest(key Key, next func() ([]byte, bool, error)) (*Stream, error) {
	st, run, err := s.Spill(key, next)
	if err != nil || st != nil {
		return st, err
	}
	return s.SortLone(key, run), nil
}

// Spill is Ingest, except that an input that fits one run is neither
// sorted nor counted: Spill returns it as run, a nil stream beside it, and
// the array is the caller's to sort as it likes. A spilled input comes back
// as the stream of its runs' merge, run nil.
func (s *Sorter) Spill(key Key, next func() ([]byte, bool, error)) (*Stream, []byte, error) {
	size := node.EntrySize(s.dims)
	return s.ingest(key, func(run []byte, room int) ([]byte, error) {
		// Records go into run while it has room, then into chunks, copied
		// once into an array of exactly their size when the fill ends: a
		// run grown by doubling would cost two to four times its size.
		var (
			chunks [][]byte
			n      int // bytes in chunks
		)
		for ; room > 0; room-- {
			rec, ok, err := next()
			if err != nil {
				return run, err
			}
			if !ok {
				break
			}
			if len(rec) != size {
				return run, fmt.Errorf("extsort: record of %d bytes, a %d-D sorter's are %d", len(rec), s.dims, size)
			}
			if len(chunks) == 0 && cap(run)-len(run) >= size {
				run = append(run, rec...)
				continue
			}
			if len(chunks) == 0 || cap(chunks[len(chunks)-1]) == len(chunks[len(chunks)-1]) {
				chunks = append(chunks, make([]byte, 0, min(room, chunkRecords)*size))
			}
			last := &chunks[len(chunks)-1]
			*last = append(*last, rec...)
			n += size
		}
		if len(chunks) == 0 {
			return run, nil
		}
		whole := append(make([]byte, 0, len(run)+n), run...)
		for _, c := range chunks {
			whole = append(whole, c...)
		}
		s.putRun(run)
		return whole, nil
	})
}

// IngestStream sorts the next n records of from by key, as Spill sorts a
// source's: they are merged straight into runs, with no call per record.
// More than one run's worth come back as the stream of the runs' merge,
// run nil; n of them or fewer as run, unsorted, beside a nil stream, for
// SortLone. from must not be read meanwhile.
func (s *Sorter) IngestStream(key Key, from *Stream, n int) (*Stream, []byte, error) {
	return s.ingest(key, func(run []byte, room int) ([]byte, error) {
		take := min(room, n)
		n -= take
		return from.appendNext(run, take)
	})
}

// SortLone sorts run, a take Spill or IngestStream handed back unsorted,
// on every worker and returns it as a stream of one batch: a run without
// a file. It touches no stream, so it may run beside another sort's ingest
// on the same Sorter.
func (s *Sorter) SortLone(key Key, run []byte) *Stream {
	st := &Stream{size: node.EntrySize(s.dims), key: key, total: len(run) / node.EntrySize(s.dims), sorter: s}
	s.sorts.Add(1)
	s.entriesSorted.Add(uint64(st.total))
	if st.total == 0 {
		s.putRun(run)
		return st
	}
	sorted := s.sortRun(run, key, s.workers())
	st.runs = []mergeRun{{batch: sorted, cur: sorted}}
	st.heap = mergeHeap{{key: key.of(sorted)}}
	return st
}

// ingest reads records through fill into runs of runSize, each full one
// sorted and spilled by the worker pool while reading goes on, and returns
// the stream of the spilled runs' merge — or, when the input fit one run,
// no stream and that run unsorted. fill appends up to room records to run
// and returns fewer only at the end of its input.
func (s *Sorter) ingest(key Key, fill func(run []byte, room int) ([]byte, error)) (_ *Stream, lone []byte, err error) {
	size := node.EntrySize(s.dims)
	st := &Stream{size: size, key: key}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.Close())
		}
	}()

	// The loop keeps filling while up to `workers` goroutines spill.
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

	// A full run is spilled once the next one holds a record: a run is
	// spilled unless it is the whole input.
	run, full := s.getRun(), s.runSize*size
	for !failed.Load() {
		before := len(run)
		run, err = fill(run, (full-len(run))/size)
		st.total += (len(run) - before) / size
		if err != nil || len(run) < full {
			break
		}
		next := s.getRun()
		if next == nil {
			// The input filled a run: the next one will very likely
			// fill too, so it starts at its full size.
			next = make([]byte, 0, full)
		}
		next, ferr := fill(next, 1)
		st.total += len(next) / size
		if err = ferr; err != nil || len(next) == 0 {
			s.putRun(next)
			break
		}
		spawnSpill(run)
		run = next
	}
	if len(spills) > 0 && len(run) > 0 && err == nil && !failed.Load() {
		spawnSpill(run)
	}
	wg.Wait()
	for _, sp := range spills {
		if sp.f != nil {
			st.runs = append(st.runs, mergeRun{f: sp.f})
		}
		err = errors.Join(err, sp.err)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(spills) == 0 {
		return nil, run, nil
	}
	s.sorts.Add(1)
	s.entriesSorted.Add(uint64(st.total))
	s.runsSpilled.Add(uint64(len(spills)))
	s.merges.Add(1)

	// K-way merge: heap the runs by their head records.
	for src := range st.runs {
		r := &st.runs[src]
		if _, err := r.f.Seek(0, io.SeekStart); err != nil {
			return nil, nil, err
		}
		ok, err := r.refill(size)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			st.heap = append(st.heap, mergeItem{key: key.of(r.batch), src: src})
		}
	}
	for i := len(st.heap)/2 - 1; i >= 0; i-- {
		st.heap.down(i)
	}
	return st, nil, nil
}

// NextRun returns the next records in order, one or more, false at the end
// of the stream, or the read error that cut a run short: once one run is
// left, as a run that never spilled always is, the rest of its current
// batch in one piece; before that, up to a batch merged into a buffer the
// stream reuses. The records stay valid until the next call to NextRun or
// Close, and no longer: the stream then reuses their storage. An error
// sticks: every later call returns it.
func (st *Stream) NextRun() ([]byte, bool, error) {
	if st.err != nil {
		return nil, false, st.err
	}
	st.release()
	switch len(st.heap) {
	case 0:
		st.err = st.end()
		return nil, false, st.err
	case 1:
		var recs []byte
		recs, st.err = st.pop(st.total)
		return recs, st.err == nil, st.err
	}
	var err error
	st.buf, err = st.appendNext(st.buf[:0], mergeBatch)
	return st.buf, err == nil, err
}

// appendNext appends the next n records in order to dst, fewer only at the
// end of the stream, and returns it, with the stream's error, which sticks.
func (st *Stream) appendNext(dst []byte, n int) ([]byte, error) {
	if st.err != nil {
		return dst, st.err
	}
	n = min(n, st.total-st.emitted)
	dst = slices.Grow(dst, n*st.size)
	for n > 0 && len(st.heap) > 0 {
		recs, err := st.pop(n)
		dst = append(dst, recs...)
		st.release() // copied: a lone run's array may go
		if err != nil {
			st.err = err
			return dst, err
		}
		n -= len(recs) / st.size
	}
	if n > 0 {
		st.err = st.end()
	}
	return dst, st.err
}

// pop takes records off the head of the run at the top of the heap and
// restores the heap: one, or up to max and the rest of the batch when that
// run is the last, since no other run's record can come between. A lone
// run's array, once pop empties it, is held in st.spent until release, as
// what pop returns lies in it.
func (st *Stream) pop(max int) ([]byte, error) {
	top := &st.heap[0]
	r := &st.runs[top.src]
	k := 1
	if len(st.heap) == 1 {
		k = min(max, len(r.batch)/st.size)
	}
	recs := r.batch[: k*st.size : k*st.size]
	r.batch = r.batch[k*st.size:]
	st.emitted += k
	if len(r.batch) == 0 {
		ok, err := r.refill(st.size)
		if err != nil {
			return nil, err
		}
		if !ok {
			if r.f == nil {
				st.spent = r.cur
			}
			last := len(st.heap) - 1
			st.heap[0] = st.heap[last]
			st.heap = st.heap[:last]
			st.heap.down(0)
			return recs, nil
		}
	}
	top.key = st.key.of(r.batch)
	st.heap.down(0)
	return recs, nil
}

// release hands a lone run's array, which the last call's records lay in,
// back to the sorter.
func (st *Stream) release() {
	if st.spent != nil {
		st.sorter.putRun(st.spent)
		st.spent = nil
	}
}

// end is the error of a stream that ran dry, nil when it emitted every
// record.
func (st *Stream) end() error {
	if st.emitted != st.total {
		return fmt.Errorf("extsort: emitted %d of %d records", st.emitted, st.total)
	}
	return nil
}

// Close closes and removes every run file, reporting rather than dropping
// close and remove failures. It may be called at any point of the stream,
// and more than once.
func (st *Stream) Close() (err error) {
	st.release()
	for _, r := range st.runs {
		if r.f == nil {
			continue
		}
		err = errors.Join(err, r.f.Close())
		if rmErr := os.Remove(r.f.Name()); rmErr != nil {
			err = errors.Join(err, rmErr)
		}
	}
	st.runs, st.heap = nil, nil
	return err
}

// mergeRun is one run of the merge. A run that never spilled has no file,
// and its one batch is its whole sorted array.
type mergeRun struct {
	f     *os.File
	batch []byte // the rest of the current batch, the run's head record first
	cur   []byte // the current batch, whole
	next  []byte // the buffer refill reads the next batch into
}

// refill reads the run's next batch into the buffer the current batch is
// not in, and makes it current: the records last taken off the run stay
// as they were until the refill after. It reports false at the run's end,
// and an error for a failed read or a file that ends inside a record.
func (r *mergeRun) refill(size int) (bool, error) {
	if r.f == nil {
		return false, nil
	}
	if r.next == nil {
		r.next = make([]byte, mergeBatch*size)
	}
	n, err := io.ReadFull(r.f, r.next[:cap(r.next)])
	if err == io.EOF {
		return false, nil
	}
	if err == io.ErrUnexpectedEOF && n%size == 0 {
		err = nil // the run's last batch; the next read reports EOF
	}
	if err != nil {
		return false, err
	}
	r.cur, r.next = r.next[:n], r.cur
	r.batch = r.cur
	return true, nil
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
