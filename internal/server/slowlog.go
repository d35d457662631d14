package server

// This file is the structured slow-query log: the JSON sibling of the
// plain-text Logf slow-query line. Each request at or over the slow
// threshold emits one self-contained JSON object capturing the query's
// shape (op, geometry, k), outcome (status, result count) and duration —
// enough for `strbench -replay` to re-execute the captured workload
// against an index and measure it, closing the capture-replay loop the
// roadmap asks for.

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

// RectJSON is a rectangle's JSON wire shape: min and max corners as
// coordinate arrays, any dimensionality.
type RectJSON struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// ToRect converts back to a geometry rectangle, validating shape.
func (r RectJSON) ToRect() (geom.Rect, error) {
	rect := geom.Rect{Min: geom.Point(r.Min), Max: geom.Point(r.Max)}
	if !rect.Valid() {
		return geom.Rect{}, fmt.Errorf("invalid rect min=%v max=%v", r.Min, r.Max)
	}
	return rect, nil
}

// FromRect converts a geometry rectangle to its JSON shape.
func FromRect(r geom.Rect) RectJSON {
	return RectJSON{Min: append([]float64(nil), r.Min...), Max: append([]float64(nil), r.Max...)}
}

// SlowQuery is one slow-query log record: everything needed to replay
// the request and compare its cost. Geometry fields are op-specific,
// mirroring wire.Request.
type SlowQuery struct {
	Op         string     `json:"op"`                   // wire op name
	Rect       *RectJSON  `json:"rect,omitempty"`       // search, count
	Point      []float64  `json:"point,omitempty"`      // searchpoint, nearest
	K          uint32     `json:"k,omitempty"`          // nearest
	Batch      []RectJSON `json:"batch,omitempty"`      // batch
	DurationNs int64      `json:"duration_ns"`          // server-side execution time
	Results    uint64     `json:"results"`              // resultCount of the response
	Status     string     `json:"status"`               // response status name
	UnixNanos  int64      `json:"unix_nanos,omitempty"` // capture timestamp
}

// slowLogger serializes slow-query records onto one writer. Concurrent
// connection handlers share it, so writes are mutex-guarded and each
// record is a single Write call of one line.
type slowLogger struct {
	mu sync.Mutex
	w  io.Writer // guarded by mu
}

// log encodes and writes one record; encoding or write failures surface
// through the server's Logf (the log is advisory, never fatal).
func (l *slowLogger) log(s *Server, rec *SlowQuery) {
	line, err := json.Marshal(rec)
	if err != nil {
		s.Logf("slowlog: marshal: %v", err)
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, err = l.w.Write(line)
	l.mu.Unlock()
	if err != nil {
		s.Logf("slowlog: write: %v", err)
	}
}

// slowRecord builds the JSON record for one slow request/response pair.
func slowRecord(req *wire.Request, resp *wire.Response, elapsed time.Duration) *SlowQuery {
	rec := &SlowQuery{
		Op:         req.Op.String(),
		DurationNs: int64(elapsed),
		Results:    resultCount(resp),
		Status:     resp.Status.String(),
		UnixNanos:  time.Now().UnixNano(),
	}
	switch req.Op {
	case wire.OpSearch, wire.OpCount:
		r := FromRect(req.Query)
		rec.Rect = &r
	case wire.OpSearchPoint:
		rec.Point = append([]float64(nil), req.Point...)
	case wire.OpNearest:
		rec.Point = append([]float64(nil), req.Point...)
		rec.K = req.K
	case wire.OpBatch:
		rec.Batch = make([]RectJSON, len(req.Batch))
		for i, q := range req.Batch {
			rec.Batch[i] = FromRect(q)
		}
	}
	return rec
}

// ReadSlowLog decodes a structured slow-query log: one JSON object per
// line, blank lines skipped. It is the reader strbench -replay uses.
func ReadSlowLog(r io.Reader) ([]SlowQuery, error) {
	dec := json.NewDecoder(r)
	var out []SlowQuery
	for {
		var rec SlowQuery
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("slowlog record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}

// Request converts a captured record back into the wire request it was
// logged from, validating geometry the way the protocol parser would.
func (q *SlowQuery) Request() (*wire.Request, error) {
	req := &wire.Request{}
	switch q.Op {
	case wire.OpSearch.String():
		req.Op = wire.OpSearch
	case wire.OpSearchPoint.String():
		req.Op = wire.OpSearchPoint
	case wire.OpCount.String():
		req.Op = wire.OpCount
	case wire.OpNearest.String():
		req.Op = wire.OpNearest
	case wire.OpBatch.String():
		req.Op = wire.OpBatch
	case wire.OpStats.String():
		req.Op = wire.OpStats
	default:
		return nil, fmt.Errorf("slowlog: unknown op %q", q.Op)
	}
	switch req.Op {
	case wire.OpSearch, wire.OpCount:
		if q.Rect == nil {
			return nil, fmt.Errorf("slowlog: %s record missing rect", q.Op)
		}
		rect, err := q.Rect.ToRect()
		if err != nil {
			return nil, fmt.Errorf("slowlog: %s: %w", q.Op, err)
		}
		req.Query = rect
	case wire.OpSearchPoint, wire.OpNearest:
		if len(q.Point) == 0 {
			return nil, fmt.Errorf("slowlog: %s record missing point", q.Op)
		}
		req.Point = geom.Point(q.Point)
		if req.Op == wire.OpNearest {
			if q.K < 1 {
				return nil, fmt.Errorf("slowlog: nearest record missing k")
			}
			req.K = q.K
		}
	case wire.OpBatch:
		req.Batch = make([]geom.Rect, len(q.Batch))
		for i, rj := range q.Batch {
			rect, err := rj.ToRect()
			if err != nil {
				return nil, fmt.Errorf("slowlog: batch[%d]: %w", i, err)
			}
			req.Batch[i] = rect
		}
	}
	return req, nil
}
