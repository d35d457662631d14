package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"time"

	"strtree"
	"strtree/internal/buffer"
	"strtree/internal/datagen"
	"strtree/internal/node"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// genData generates the ledger's one data family, uniform squares at
// density 1.0 (the paper's synthetic recipe), as entries and as items.
func genData(n int, seed int64) ([]node.Entry, []strtree.Item) {
	entries := datagen.UniformSquares(n, 1.0, seed)
	items := make([]strtree.Item, len(entries))
	for i, e := range entries {
		items[i] = strtree.Item{Rect: e.Rect, ID: e.Ref}
	}
	return entries, items
}

// buildIndex packs items with STR into a new index file through the
// public API, exactly as a user would.
func buildIndex(path string, items []strtree.Item, workers int) error {
	t, err := strtree.Create(path, strtree.Options{Workers: workers})
	if err != nil {
		return err
	}
	if err := t.BulkLoad(items, strtree.PackSTR); err != nil {
		return errors.Join(err, t.Close())
	}
	return t.Close()
}

// closer is a workload's set-up product.
type closer interface{ close() error }

// repeatSetup runs a workload's whole set-up several times over —
// data generation, index build, oracle, topology start, warm-up — and
// records the median duration as setup_s, so work a later change moves
// out of the measured part and into set-up shows up there: setupRepeats
// times, and where a set-up is short — and a median of three of them at
// the mercy of one slow moment — up to setupMost times while they have
// taken less than setupBudget together. Every state but the last is closed
// again at once. A traced run reports no setup_s and sets up once.
func repeatSetup[S closer](c *runCtx, setup func() (S, error)) (S, error) {
	var durs []time.Duration
	var total time.Duration
	var last S
	for {
		if len(durs) > 0 {
			if err := last.close(); err != nil {
				return last, fmt.Errorf("set-up: close: %w", err)
			}
			settle() // the next set-up starts from the same heap
		}
		before, t0 := machineSpeed(), time.Now()
		st, err := setup()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		// Like every timed end-to-end metric, stated at the reference speed.
		d := time.Since(t0)
		durs = append(durs, time.Duration(float64(d)*(before+machineSpeed())/2))
		total += d
		last = st
		if c.traced() || len(durs) >= setupMost || (len(durs) >= c.sz.setupRepeats && total >= setupBudget) {
			break
		}
	}
	c.res.set("setup_s", durationsMedian(durs).Seconds())
	return last, nil
}

// See repeatSetup.
const (
	setupMost   = 7
	setupBudget = 3 * time.Second
)

// settle collects garbage between two stages of a set-up. Without it the
// process's peak RSS depends on where in a stage the collector happened to
// start a cycle, and varies by a tenth from run to run; with it the peak
// follows what the stages keep alive.
func settle() { runtime.GC() }

// fileSize returns the index file's length in bytes.
func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// fileSum is the FNV-64a checksum of a whole file; two builds of the same
// input must agree on it.
func fileSum(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// innerStack is a tree assembled from the internal packages the way
// strtree.Open assembles one — pager, buffer pool, rtree — with the
// timing wrappers slipped in at the two interface boundaries when a
// tracer is given.
type innerStack struct {
	file  *storage.FilePager
	pager *timingPager   // nil without a tracer
	mgr   *timingManager // nil without a tracer
	pool  buffer.Manager
	tree  *rtree.Tree
}

func openInner(path string, pages int, tr *tracer) (*innerStack, error) {
	fp, err := storage.OpenFilePager(path, storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	s := &innerStack{file: fp}
	var pg storage.Pager = fp
	if tr != nil {
		s.pager = &timingPager{Pager: fp, tr: tr}
		pg = s.pager
	}
	s.pool = buffer.NewPool(pg, pages)
	if tr != nil {
		s.mgr = &timingManager{Manager: s.pool, tr: tr}
		s.pool = s.mgr
	}
	s.tree, err = rtree.Open(s.pool)
	if err != nil {
		return nil, errors.Join(err, fp.Close())
	}
	return s, nil
}

// arm readies a warmed stack for the replay proper: counters zeroed and,
// on a traced stack, the tracer switched on for every op ex runs.
func (s *innerStack) arm(ex *innerExec, tr *tracer) {
	s.pool.ResetStats()
	if tr != nil {
		ex.trace(tr)
		s.mgr.nodeFetches, s.mgr.entriesSeen = 0, 0
		s.pager.reads, s.pager.writes = 0, 0
	}
}

// sameAnswers requires a replay to have failed no op and to have given,
// op for op, the answers the public API gave.
func sameAnswers(back, got []answer, tl tally) error {
	if tl.failed > 0 {
		return fmt.Errorf("traced replay: %s", tl.firstFailure)
	}
	for i := range back {
		if back[i] != got[i] {
			return fmt.Errorf("traced replay: op %d answers differently from the public API", i)
		}
	}
	return nil
}

// close flushes and closes like strtree.Tree.Close: flush, sync, close.
func (s *innerStack) close() error {
	var pg storage.Pager = s.file
	if s.pager != nil {
		pg = s.pager
	}
	return errors.Join(s.tree.Flush(), pg.Sync(), s.file.Close())
}

// memDelta reads the allocator's counters around a measured stretch.
type memDelta struct{ mallocs, bytes uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

func perOp(total float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
