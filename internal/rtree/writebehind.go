package rtree

import (
	"sync"
	"sync/atomic"
	"time"

	"strtree/internal/node"
	"strtree/internal/storage"
)

// writeBehindQueue is how many finished nodes may wait for the background
// writer before packing blocks. At fan-out 100 and a 4 KiB page this is
// a few hundred KiB of queued records — enough to ride out a slow write
// without letting memory grow with the tree.
const writeBehindQueue = 64

// runPages is how many consecutive pages the page writer stages before it
// writes them with one pager call: 256 KiB of 4 KiB pages.
const runPages = 64

// pageJob is one finished node waiting to be copied onto the page reserved
// for it: its records, in the order the page stores them. The writer only
// reads recs, and the producer must not write them again until close has
// returned.
type pageJob struct {
	id    storage.PageID
	level int
	recs  []byte
}

// pageWriter emits finished nodes during a bulk load. The packing goroutine
// only reserves a page id per node (bookkeeping, no I/O) and computes its
// MBR; the writer fills each node's page image (node.FillRecords) into a
// stage of runPages consecutive pages and writes the stage with one
// WritePages call — past the pool, pinning no frame — when it is full or
// the next id does not follow it (a recycled id from t.free). With
// t.workers > 1 it runs on a background goroutine behind a bounded queue,
// so it overlaps packing the next node, and otherwise inline. Errors are
// first-error-wins: after a write fails, remaining jobs are drained without
// touching the pager, and close() returns the failure and leaves it in
// t.writeErr for every later Flush.
//
// The build goroutine owns page reservation (t.reservePage, t.free) and
// tree metadata; the writer owns the stage until close has waited for it.
// The jobs channel provides the happens-before edge between writing a
// node's records and the writer reading them.
type pageWriter struct {
	t     *Tree
	async bool

	jobs chan pageJob
	wg   sync.WaitGroup

	stage  []byte // the images of pages first, first+1, …, staged of them
	first  storage.PageID
	staged int

	mu     sync.Mutex
	err    error // guarded by mu
	closed bool  // guarded by mu

	pages int
	// queuePeak is the deepest the job queue got during the build — the
	// observability signal for "is the writer keeping up or is packing
	// about to block". Written and read from the build goroutine only.
	queuePeak  int
	writeNanos atomic.Int64
}

func (t *Tree) newPageWriter() *pageWriter {
	w := &pageWriter{t: t, async: t.workers > 1, stage: make([]byte, runPages*t.pool.Pager().PageSize())}
	if w.async {
		w.jobs = make(chan pageJob, writeBehindQueue)
		w.wg.Add(1)
		go w.run()
	}
	return w
}

// fill stages one node's page, first writing the staged run if the page
// does not extend it; fill(nil) writes the last run. Timed.
func (w *pageWriter) fill(job *pageJob) error {
	//strlint:ignore timerand write-behind wait/IO durations feed flush stats only; what is written, and where, is fixed before timing starts
	t0 := time.Now()
	//strlint:ignore timerand write-behind wait/IO durations feed flush stats only; what is written, and where, is fixed before timing starts
	defer func() { w.writeNanos.Add(int64(time.Since(t0))) }()
	if job == nil || w.staged == runPages || w.staged > 0 && job.id != w.first+storage.PageID(w.staged) {
		if err := w.writeRun(); err != nil || job == nil {
			return err
		}
	}
	size := len(w.stage) / runPages
	if err := node.FillRecords(w.stage[w.staged*size:(w.staged+1)*size], job.level, w.t.dims, job.recs); err != nil {
		return err
	}
	if w.staged == 0 {
		w.first = job.id
	}
	w.staged++
	return nil
}

// writeRun writes the staged pages with one call and empties the stage.
func (w *pageWriter) writeRun() error {
	n := w.staged
	w.staged = 0
	if n == 0 {
		return nil
	}
	return w.t.pool.WritePages(w.first, w.stage[:n*len(w.stage)/runPages])
}

func (w *pageWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *pageWriter) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// run drains the job queue on the background goroutine.
func (w *pageWriter) run() {
	defer w.wg.Done()
	for job := range w.jobs {
		if w.firstErr() == nil {
			if err := w.fill(&job); err != nil {
				w.fail(err)
			}
		}
	}
}

// emit hands a finished node and the page reserved for it to the writer.
func (w *pageWriter) emit(job pageJob) error {
	w.pages++
	if !w.async {
		if err := w.fill(&job); err != nil {
			w.fail(err)
			return err
		}
		return nil
	}
	if err := w.firstErr(); err != nil {
		return err
	}
	// Depth including the job about to enqueue; len is a momentary reading
	// (the writer drains concurrently) but a high-water mark of it is the
	// right "was the queue ever near blocking" signal.
	if d := len(w.jobs) + 1; d > w.queuePeak {
		w.queuePeak = d
	}
	w.jobs <- job
	return nil
}

// close drains the queue, stops the background writer, writes the last run
// and returns the first write error. It is idempotent, so bulk loads both
// defer it (for early error returns) and call it explicitly before flushing.
func (w *pageWriter) close() error {
	w.mu.Lock()
	already := w.closed
	w.closed = true
	w.mu.Unlock()
	if !already {
		if w.async {
			close(w.jobs)
			w.wg.Wait()
		}
		if w.firstErr() == nil {
			if err := w.fill(nil); err != nil {
				w.fail(err)
			}
		}
		if err := w.firstErr(); err != nil {
			w.t.writeErr = err
		}
	}
	return w.firstErr()
}

// writeTime reports the cumulative wall time spent filling pages and writing
// runs. In async mode this overlaps the ordering time rather than adding to
// it.
func (w *pageWriter) writeTime() time.Duration {
	return time.Duration(w.writeNanos.Load())
}
