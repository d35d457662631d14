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
// logged from and validates it with the client's own encoder
// (wire.AppendRequest), so a record no server could have received — bad
// geometry, a k, batch or dimensionality beyond the protocol's bounds — is
// an error, not a replayed query. Insert and delete records are not
// replayed.
func (q *SlowQuery) Request() (*wire.Request, error) {
	req := &wire.Request{Point: geom.Point(q.Point), K: q.K}
	// The replayable ops are 1 through OpStats; insert and delete follow.
	for op := wire.OpSearch; op <= wire.OpStats; op++ {
		if q.Op == op.String() {
			req.Op = op
		}
	}
	if req.Op == 0 {
		return nil, fmt.Errorf("slowlog: unknown op %q", q.Op)
	}
	if q.Rect != nil {
		req.Query = geom.Rect{Min: q.Rect.Min, Max: q.Rect.Max}
	}
	for _, rj := range q.Batch {
		req.Batch = append(req.Batch, geom.Rect{Min: rj.Min, Max: rj.Max})
	}
	if _, err := wire.AppendRequest(nil, req); err != nil {
		return nil, fmt.Errorf("slowlog: %s record: %w", q.Op, err)
	}
	return req, nil
}
