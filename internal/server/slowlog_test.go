package server

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

// lockedBuffer is an io.Writer safe for the server's concurrent
// connection handlers to share with the test's reader.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowLogCapture drives every capturable op through a server whose
// slow threshold is 1ns (everything is slow), then decodes the JSON log
// and round-trips each record back into a wire request — the exact path
// strbench -replay takes.
func TestSlowLogCapture(t *testing.T) {
	tree := buildTree(t, 300)
	defer func() { _ = tree.Close() }()
	var log lockedBuffer
	_, addr := startServer(t, tree, Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowLogJSON:        &log,
	})

	cl := Dial(addr)
	defer func() { _ = cl.Close() }()

	window := geom.R2(0.1, 0.1, 0.4, 0.4)
	items, err := cl.Search(window)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Count(window); err != nil {
		t.Fatal(err)
	}
	for _, req := range []wire.Request{
		{Op: wire.OpSearchPoint, Point: geom.Point{0.5, 0.5}},
		{Op: wire.OpNearest, Point: geom.Point{0.5, 0.5}, K: 3},
		{Op: wire.OpBatch, Batch: []geom.Rect{window, geom.R2(0.6, 0.6, 0.7, 0.7)}},
	} {
		if _, err := cl.roundTrip(&req); err != nil {
			t.Fatal(err)
		}
	}

	records, err := ReadSlowLog(strings.NewReader(log.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 {
		t.Fatalf("captured %d records, want 5:\n%s", len(records), log.String())
	}

	wantOps := []wire.Op{wire.OpSearch, wire.OpCount, wire.OpSearchPoint, wire.OpNearest, wire.OpBatch}
	for i, rec := range records {
		req, err := rec.Request()
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rec.Op, err)
		}
		if req.Op != wantOps[i] {
			t.Errorf("record %d: op %v, want %v", i, req.Op, wantOps[i])
		}
		if rec.Status != wire.StatusOK.String() {
			t.Errorf("record %d: status %q", i, rec.Status)
		}
		if rec.DurationNs <= 0 {
			t.Errorf("record %d: duration %d", i, rec.DurationNs)
		}
	}
	if records[0].Results != uint64(len(items)) {
		t.Errorf("search record results = %d, want %d", records[0].Results, len(items))
	}
	// The captured geometry must survive the round trip exactly.
	req0, _ := records[0].Request()
	if !req0.Query.Equal(window) {
		t.Errorf("search rect round-trip: %v, want %v", req0.Query, window)
	}
	req3, _ := records[3].Request()
	if req3.K != 3 || len(req3.Point) != 2 {
		t.Errorf("nearest record: k=%d point=%v", req3.K, req3.Point)
	}
	req4, _ := records[4].Request()
	if len(req4.Batch) != 2 {
		t.Errorf("batch record: %d windows, want 2", len(req4.Batch))
	}
}

// TestSlowLogThresholdFilters proves a generous threshold captures
// nothing: the log stays empty while queries still answer.
func TestSlowLogThresholdFilters(t *testing.T) {
	tree := buildTree(t, 100)
	defer func() { _ = tree.Close() }()
	var log lockedBuffer
	_, addr := startServer(t, tree, Config{
		SlowQueryThreshold: time.Hour,
		SlowLogJSON:        &log,
	})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()
	if _, err := cl.Count(geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := log.String(); got != "" {
		t.Fatalf("threshold 1h captured: %s", got)
	}
}

func TestSlowQueryRequestErrors(t *testing.T) {
	tooMany := make([]RectJSON, wire.MaxBatch+1)
	for i := range tooMany {
		tooMany[i] = RectJSON{Min: []float64{0, 0}, Max: []float64{1, 1}}
	}
	cases := []SlowQuery{
		{Op: "bogus"},
		{Op: "search"}, // missing rect
		{Op: "count", Rect: &RectJSON{Min: []float64{1, 1}, Max: []float64{0, 0}}}, // inverted
		{Op: "searchpoint"},                     // missing point
		{Op: "nearest", Point: []float64{0, 0}}, // missing k
		{Op: "batch", Batch: []RectJSON{{Min: []float64{1}, Max: []float64{0}}}},
		// Records no server could have received: the wire encoder refuses
		// each, so a replay must skip it rather than run it.
		{Op: "nearest", Point: []float64{0, 0}, K: wire.MaxK + 1},
		{Op: "batch", Batch: tooMany},
		{Op: "searchpoint", Point: make([]float64, wire.MaxDims+1)},
		{Op: "insert", Rect: &RectJSON{Min: []float64{0, 0}, Max: []float64{1, 1}}}, // mutations are not replayed
	}
	for i, rec := range cases {
		if _, err := rec.Request(); err == nil {
			t.Errorf("case %d (%s): bad record accepted", i, rec.Op)
		}
	}
	// A stats record is valid and carries no geometry.
	rec := SlowQuery{Op: "stats"}
	req, err := rec.Request()
	if err != nil || req.Op != wire.OpStats {
		t.Errorf("stats record: %v, %v", req, err)
	}
}

func TestReadSlowLogRejectsGarbage(t *testing.T) {
	if _, err := ReadSlowLog(strings.NewReader(`{"op":"count"}` + "\n" + `{garbage`)); err == nil {
		t.Error("garbage line accepted")
	}
	records, err := ReadSlowLog(strings.NewReader(""))
	if err != nil || len(records) != 0 {
		t.Errorf("empty log: %v, %v", records, err)
	}
}

func TestRectJSONRoundTrip(t *testing.T) {
	r := geom.R2(0.25, 0.5, 0.75, 1)
	rj := FromRect(r)
	if req, err := (&SlowQuery{Op: "search", Rect: &rj}).Request(); err != nil || !req.Query.Equal(r) {
		t.Fatalf("round trip: %v, %v", req, err)
	}
	bad := RectJSON{Min: []float64{0, 0}, Max: []float64{1}}
	if _, err := (&SlowQuery{Op: "search", Rect: &bad}).Request(); err == nil {
		t.Error("mismatched corner dims accepted")
	}
}
