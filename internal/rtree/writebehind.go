package rtree

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"strtree/internal/buffer"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// writeBehindQueue is how many finished nodes may wait for the background
// writer before packing blocks. At fan-out 100 and a 4 KiB page this is
// a few hundred KiB of queued entries — enough to ride out a slow write
// without letting memory grow with the tree.
const writeBehindQueue = 64

// pageJob is one finished node waiting to be serialized onto the page
// reserved for it. Ownership of n.Entries transfers to the writer with the
// job: the producer must not touch the slice afterwards (it computes the
// node MBR before emitting for exactly this reason).
type pageJob struct {
	id      storage.PageID
	fresh   bool // reservePage's: the page was never written, adopt its frame
	n       node.Node
	recycle bool // hand n.Entries back through the free list after writing
}

// pageWriter emits finished nodes during a bulk load. The packing goroutine
// only reserves a page id per node (bookkeeping, no I/O) and computes its
// MBR; everything that touches the buffer pool or the pager — pinning a
// frame for the page, evicting another page to make room and writing it
// back, serializing the node — is t.fillPage, which with t.workers > 1 runs
// on a background goroutine behind a bounded queue, so it overlaps packing
// the next node, and otherwise runs inline. Errors are first-error-wins:
// after a page fails, remaining jobs are drained without touching the pager
// and close() returns the first failure.
//
// The split of tree state is strict: the build goroutine owns page
// reservation (t.reservePage, t.free) and tree metadata; the writer
// goroutine only calls t.fillPage, which goes through the buffer manager's
// own locking. The jobs channel provides the happens-before edge between
// filling a node's entries and the writer reading them.
//
// The build holds a pin on the tree's meta page from start to close, so the
// epilogue's writeMeta finds it resident however small the pool: a bulk
// load reads nothing and writes each page once. That takes two frames where
// the meta page lives — that one and the page being filled; a pool with
// only one there gives the pin up at the first fill it blocks (fill) and
// pays what it saved: one write-back of the meta page and one read.
type pageWriter struct {
	t     *Tree
	async bool
	// meta is the build's pin on the meta page; nil once given up. The
	// writer owns it until close has waited for it.
	meta *buffer.Frame

	jobs chan pageJob
	free chan []node.Entry
	wg   sync.WaitGroup

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

func (t *Tree) newPageWriter() (*pageWriter, error) {
	meta, err := t.pool.Fetch(t.metaPage)
	if err != nil {
		return nil, err
	}
	w := &pageWriter{t: t, async: t.workers > 1, meta: meta}
	if w.async {
		w.jobs = make(chan pageJob, writeBehindQueue)
		w.free = make(chan []node.Entry, writeBehindQueue+1)
		w.wg.Add(1)
		go w.run()
	}
	return w, nil
}

// fill is the one page-fill step of both arms, timed.
func (w *pageWriter) fill(job *pageJob) error {
	t0 := time.Now()
	err := w.t.fillPage(job.id, job.fresh, &job.n)
	if w.meta != nil && errors.Is(err, buffer.ErrPoolExhausted) {
		w.t.pool.Release(w.meta)
		w.meta = nil
		err = w.t.fillPage(job.id, job.fresh, &job.n)
	}
	w.writeNanos.Add(int64(time.Since(t0)))
	return err
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
		if job.recycle {
			select {
			case w.free <- job.n.Entries[:0]:
			default:
			}
		}
	}
}

// emit hands a finished node and the page reserved for it to the writer.
// In async mode ownership of n.Entries transfers with the call; the
// producer must have read everything it needs (the MBR) beforehand and must
// not reuse the slice except via recycleOrNew.
func (w *pageWriter) emit(job pageJob) error {
	w.pages++
	if !w.async {
		return w.fill(&job)
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

// recycleOrNew returns an entry buffer for the producer's next node. In
// sync mode the write has already completed, so the old buffer is simply
// truncated; in async mode the old buffer now belongs to the writer, so a
// recycled buffer (or a fresh one) comes back instead.
func (w *pageWriter) recycleOrNew(old []node.Entry, capHint int) []node.Entry {
	if !w.async {
		return old[:0]
	}
	select {
	case b := <-w.free:
		return b
	default:
		return make([]node.Entry, 0, capHint)
	}
}

// close drains the queue, stops the background writer, drops the meta
// page's pin and returns the first write error. It is idempotent, so bulk
// loads both defer it (for early error returns) and call it explicitly
// before flushing.
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
		if w.meta != nil {
			w.t.pool.Release(w.meta)
		}
	}
	return w.firstErr()
}

// writeTime reports the cumulative wall time spent in fillPage: pinning
// frames (eviction and its write-back included) and serializing nodes. In
// async mode this overlaps the ordering time rather than adding to it.
func (w *pageWriter) writeTime() time.Duration {
	return time.Duration(w.writeNanos.Load())
}
