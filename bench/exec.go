package main

import (
	"fmt"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/rtree"
)

// executor runs one tape op against some stack and digests its result.
// Two stacks implement it: the public strtree API (every end-to-end
// number) and a bare rtree.Tree assembled from internal packages (the
// traced pass and the facade measurement).
type executor interface {
	do(o *op) (answer, error)
}

// scratch holds the reusable geometry and result digest an executor
// mutates per op, so driving a tape allocates nothing of its own.
type scratch struct {
	acc answer
	pt  geom.Point
	q   geom.Rect
}

func newScratch() scratch {
	return scratch{pt: geom.Pt2(0, 0), q: geom.R2(0, 0, 0, 0)}
}

func (s *scratch) point(o *op) geom.Point {
	s.pt[0], s.pt[1] = o.x0, o.y0
	return s.pt
}

func (s *scratch) rect(o *op) geom.Rect {
	s.q.Min[0], s.q.Min[1], s.q.Max[0], s.q.Max[1] = o.x0, o.y0, o.x1, o.y1
	return s.q
}

// publicExec drives the public API.
type publicExec struct {
	scratch
	t       *strtree.Tree
	tp      *tape
	onItem  func(strtree.Item) bool
	workers int
}

func newPublicExec(t *strtree.Tree, tp *tape, workers int) *publicExec {
	e := &publicExec{scratch: newScratch(), t: t, tp: tp, workers: workers}
	e.onItem = func(it strtree.Item) bool {
		e.acc.add(it.ID)
		return true
	}
	return e
}

func (e *publicExec) do(o *op) (answer, error) {
	e.acc = answer{}
	var err error
	switch o.kind {
	case opPoint:
		err = e.t.SearchPoint(e.point(o), e.onItem)
	case opSearch:
		err = e.t.Search(e.rect(o), e.onItem)
	case opCount:
		var n int
		n, err = e.t.Count(e.rect(o))
		e.acc.n = uint32(n)
	case opNearest:
		var items []strtree.Item
		var dists []float64
		items, dists, err = e.t.NearestK(e.point(o), kNearest)
		for i, it := range items {
			e.acc.add(it.ID)
			e.acc.addDist(dists[i])
		}
	case opInsert:
		err = e.t.Insert(e.rect(o), o.id)
		e.acc.n = 1
	case opDelete:
		var found bool
		found, err = e.t.Delete(e.rect(o), o.id)
		if found {
			e.acc.n = 1
		}
	case opBatch:
		var res [][]strtree.Item
		res, err = e.t.SearchBatch(e.tp.batchRects(o), e.workers)
		for _, items := range res {
			for _, it := range items {
				e.acc.add(it.ID)
			}
		}
	default:
		err = fmt.Errorf("bench: op kind %v not executable", o.kind)
	}
	return e.acc, err
}

// batchRects materialises a batch op's windows.
func (tp *tape) batchRects(o *op) []geom.Rect {
	ws := tp.batches[o.id]
	qs := make([]geom.Rect, len(ws))
	for i := range ws {
		qs[i] = geom.R2(ws[i].x0, ws[i].y0, ws[i].x1, ws[i].y1)
	}
	return qs
}

// innerExec drives a bare rtree.Tree: the same ops one layer below the
// facade, for the traced pass. Once trace is called every op runs with
// the tracer switched on and gets an spOp span.
type innerExec struct {
	scratch
	t       *rtree.Tree
	onEntry func(node.Entry) bool
	tr      *tracer
	n       int32 // ops executed since trace
}

func (e *innerExec) trace(tr *tracer) { e.tr, e.n = tr, 0 }

func newInnerExec(t *rtree.Tree, tr *tracer) *innerExec {
	e := &innerExec{scratch: newScratch(), t: t, tr: tr}
	e.onEntry = func(en node.Entry) bool {
		e.acc.add(en.Ref)
		return true
	}
	return e
}

func (e *innerExec) do(o *op) (answer, error) {
	e.acc = answer{}
	var err error
	span := int32(-1)
	if e.tr != nil {
		e.tr.on = true
		e.tr.op, e.tr.arg = e.n, uint8(o.kind)
		e.n++
		span = e.tr.begin(spOp)
	}
	switch o.kind {
	case opPoint:
		err = e.t.SearchPoint(e.point(o), e.onEntry)
	case opSearch:
		err = e.t.Search(e.rect(o), e.onEntry)
	case opCount:
		var n int
		n, err = e.t.Count(e.rect(o))
		e.acc.n = uint32(n)
	case opNearest:
		var entries []node.Entry
		var dists []float64
		entries, dists, err = e.t.NearestK(e.point(o), kNearest)
		for i, en := range entries {
			e.acc.add(en.Ref)
			e.acc.addDist(dists[i])
		}
	case opInsert:
		err = e.t.Insert(e.rect(o), o.id)
		e.acc.n = 1
	case opDelete:
		var found bool
		found, err = e.t.Delete(e.rect(o), o.id)
		if found {
			e.acc.n = 1
		}
	default:
		err = fmt.Errorf("bench: op kind %v not executable", o.kind)
	}
	if e.tr != nil {
		e.tr.end(span)
	}
	return e.acc, err
}

// tally counts what a run attempted and what failed. An op fails when it
// returns an error or, being a checked op, gives an answer other than the
// oracle's.
type tally struct {
	attempted, failed int64
	firstFailure      string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// wantOf returns the answer op i must give, if it is a checked op.
// Deletes are always checked: the tape only deletes live items.
func (tp *tape) wantOf(i int) (answer, bool) {
	if c := tp.check[i]; c >= 0 {
		return tp.want[c], true
	}
	if tp.ops[i].kind == opDelete {
		return answer{n: 1}, true
	}
	return answer{}, false
}

// runOps executes ops [from, to) of the tape in order, one after another
// (a closed loop of one client). lat receives each op's latency in
// nanoseconds; got, when non-nil, each op's answer. Clock reads chain —
// one op's end is the next one's start — so the wall time returned is the
// sum of the latencies and nothing is left between ops.
func runOps(ex executor, tp *tape, from, to int, lat []int64, got []answer, tl *tally) time.Duration {
	start := time.Now()
	prev := start
	for i := from; i < to; i++ {
		a, err := ex.do(&tp.ops[i])
		now := time.Now()
		lat[i-from] = int64(now.Sub(prev))
		prev = now
		tl.attempted++
		if err != nil {
			tl.fail("op %d (%v): %v", i, tp.ops[i].kind, err)
		} else if want, ok := tp.wantOf(i); ok && a != want {
			tl.fail("op %d (%v): got %d items digest %x, want %d items digest %x", i, tp.ops[i].kind, a.n, a.h, want.n, want.h)
		}
		if got != nil {
			got[i-from] = a
		}
	}
	return prev.Sub(start)
}
