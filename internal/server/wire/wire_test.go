package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"strtree/internal/geom"
)

// sampleRequests covers every op with representative bodies.
func sampleRequests() []*Request {
	return []*Request{
		{Op: OpSearch, TimeoutMillis: 250, Query: geom.R2(0.1, 0.2, 0.3, 0.4)},
		{Op: OpCount, Query: geom.R2(0, 0, 1, 1)},
		{Op: OpSearchPoint, Point: geom.Pt2(0.5, 0.25)},
		{Op: OpNearest, Point: geom.Pt2(0.9, 0.1), K: 7, TimeoutMillis: 1000},
		{Op: OpBatch, Batch: []geom.Rect{geom.R2(0, 0, 0.5, 0.5), geom.R2(0.5, 0.5, 1, 1)}},
		{Op: OpBatch},
		{Op: OpStats},
		{Op: OpInsert, Query: geom.R2(1, 2, 3, 4), ID: 7},
		{Op: OpDelete, Query: geom.R2(1, 2, 3, 4), ID: 1 << 42, TimeoutMillis: 50},
	}
}

// sampleResponses covers every op and every status.
func sampleResponses() []*Response {
	stats := Stats{
		InFlight: 3, Accepted: 100, Rejected: 5, TimedOut: 2, Failed: 1,
		Completed: 92, Draining: true,
		LogicalReads: 12345, DiskReads: 678, DiskWrites: 9, Evictions: 10,
		Latency: Summary{Count: 100, Mean: 1000, P50: 900, P95: 2000, P99: 5000, Max: 9000},
	}
	stats.PerOp[OpSearch-1] = Summary{Count: 50, P99: 1111}
	return []*Response{
		{Op: OpSearch, Items: []Item{{Rect: geom.R2(0, 0, 1, 1), ID: 42}}},
		{Op: OpSearchPoint, Items: nil},
		{Op: OpCount, Count: 12345},
		{Op: OpNearest, Neighbors: []Neighbor{{Item: Item{Rect: geom.R2(0, 0, 0.1, 0.1), ID: 7}, Dist: 0.25}}},
		{Op: OpBatch, Batch: [][]Item{{{Rect: geom.R2(0, 0, 1, 1), ID: 1}}, {}}},
		{Op: OpStats, Stats: stats},
		{Op: OpSearch, Status: StatusOverloaded, Err: "in-flight cap reached"},
		{Op: OpCount, Status: StatusDraining, Err: "server draining"},
		{Op: OpBatch, Status: StatusDeadline, Err: "deadline exceeded"},
		{Op: OpStats, Status: StatusBadRequest, Err: "bad dims"},
		{Op: OpNearest, Status: StatusInternal, Err: "page read failed"},
		{Op: OpInsert, Count: 1001},
		{Op: OpDelete, Found: true, Count: 1000},
		{Op: OpDelete, Found: false, Count: 0},
		{Op: OpInsert, Status: StatusBadRequest, Err: "server is read-only"},
	}
}

// TestRequestRoundTrip: encode -> parse -> encode must be byte-identical,
// and the parsed form must match field-for-field.
func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		enc, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("%v: encode: %v", req.Op, err)
		}
		got, err := ParseRequest(enc)
		if err != nil {
			t.Fatalf("%v: parse: %v", req.Op, err)
		}
		if got.Op != req.Op || got.TimeoutMillis != req.TimeoutMillis || got.K != req.K {
			t.Fatalf("%v: header fields drifted: %+v vs %+v", req.Op, got, req)
		}
		re, err := AppendRequest(nil, got)
		if err != nil {
			t.Fatalf("%v: re-encode: %v", req.Op, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("%v: re-encode differs:\n%x\n%x", req.Op, enc, re)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range sampleResponses() {
		enc, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("%v/%v: encode: %v", resp.Op, resp.Status, err)
		}
		got, err := ParseResponse(enc)
		if err != nil {
			t.Fatalf("%v/%v: parse: %v", resp.Op, resp.Status, err)
		}
		if got.Status != resp.Status || got.Op != resp.Op || got.Err != resp.Err {
			t.Fatalf("%v: header drifted: %+v", resp.Op, got)
		}
		if resp.Op == OpStats && resp.Status == StatusOK && !reflect.DeepEqual(got.Stats, resp.Stats) {
			t.Fatalf("stats drifted:\n%+v\n%+v", got.Stats, resp.Stats)
		}
		re, err := AppendResponse(nil, got)
		if err != nil {
			t.Fatalf("%v: re-encode: %v", resp.Op, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("%v: re-encode differs:\n%x\n%x", resp.Op, enc, re)
		}
	}
}

// TestParseRequestRejects pins the strict-parse failure modes.
func TestParseRequestRejects(t *testing.T) {
	good, err := AppendRequest(nil, &Request{Op: OpSearch, Query: geom.R2(0, 0, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrTruncated},
		{"bad version", append([]byte{99}, good[1:]...), ErrVersion},
		{"bad op", []byte{Version, 0, 0, 0, 0, 0}, ErrBadOp},
		{"op out of range", []byte{Version, 200, 0, 0, 0, 0}, ErrBadOp},
		{"truncated rect", good[:len(good)-3], ErrTruncated},
		{"trailing bytes", append(append([]byte{}, good...), 0xAB), ErrTrailing},
	}
	for _, tc := range cases {
		if _, err := ParseRequest(tc.payload); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Inverted rectangle: min > max in axis 1.
	bad := append([]byte{Version, uint8(OpSearch)}, 0, 0, 0, 0)
	bad = append(bad, 2)
	for _, v := range []float64{0, 5, 1, 1} {
		bad = appendF64(bad, v)
	}
	if _, err := ParseRequest(bad); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("inverted rect: err = %v", err)
	}
	// NaN corner.
	nan := append([]byte{Version, uint8(OpSearch)}, 0, 0, 0, 0)
	nan = append(nan, 2)
	for _, v := range []uint64{math.Float64bits(math.NaN()), 0, 0, 0} {
		nan = appendU64(nan, v)
	}
	if _, err := ParseRequest(nan); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("NaN corner: err = %v", err)
	}
	// Nearest with k outside [1, MaxK], both ways: the encoder refuses it,
	// and the parser refuses it in a payload hand-built the same way.
	for _, k := range []uint32{0, MaxK + 1} {
		if _, err := AppendRequest(nil, &Request{Op: OpNearest, Point: geom.Pt2(0, 0), K: k}); !errors.Is(err, ErrBadK) {
			t.Errorf("k=%d encode: err = %v, want %v", k, err, ErrBadK)
		}
		payload := appendU32(appendPoint(append([]byte{Version, uint8(OpNearest)}, 0, 0, 0, 0), geom.Pt2(0, 0)), k)
		if _, err := ParseRequest(payload); !errors.Is(err, ErrBadK) {
			t.Errorf("k=%d parse: err = %v, want %v", k, err, ErrBadK)
		}
	}
	// Dims out of range.
	wide := append([]byte{Version, uint8(OpSearchPoint)}, 0, 0, 0, 0)
	wide = append(wide, MaxDims+1)
	if _, err := ParseRequest(wide); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("dims overflow: err = %v", err)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := AppendRequest(nil, &Request{Op: 0}); !errors.Is(err, ErrBadOp) {
		t.Errorf("op 0: %v", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpSearch, Query: geom.Rect{Min: geom.Pt2(1, 1), Max: geom.Point{0}}}); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("mismatched dims: %v", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpSearch, Status: 99}); !errors.Is(err, ErrBadStatus) {
		t.Errorf("bad status: %v", err)
	}
	big := make([]geom.Rect, MaxBatch+1)
	for i := range big {
		big[i] = geom.R2(0, 0, 1, 1)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpBatch, Batch: big}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized batch: %v", err)
	}
}

// writeFrame frames payload the way every writer does — BeginFrame,
// payload, EndFrame — and writes it to w in one call.
func writeFrame(w io.Writer, payload []byte) error {
	frame, err := EndFrame(append(BeginFrame(nil), payload...))
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// TestFraming pins the length-prefix transport: clean EOF between frames,
// unexpected EOF inside one, size cap enforced before allocation.
func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xCC}, 1000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %x, want %x", i, got, want)
		}
		scratch = got
	}
	if _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// Mid-frame truncation.
	var cut bytes.Buffer
	if err := writeFrame(&cut, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := cut.Bytes()[:cut.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}

	// Hostile length prefix: rejected before any allocation.
	var huge bytes.Buffer
	huge.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&huge, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	if err := writeFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	for op := Op(1); op <= NumOps; op++ {
		if s := op.String(); s == "" || s[0] == 'o' && s != "op(0)" && len(s) < 2 {
			t.Errorf("op %d has no name", op)
		}
	}
	if Op(99).String() != "op(99)" {
		t.Errorf("unknown op name: %s", Op(99).String())
	}
	for st := StatusOK; st <= maxStatus; st++ {
		if st.String() == "" || strings.HasPrefix(st.String(), "status(") {
			t.Errorf("status %d has no name", st)
		}
	}
	if Status(99).String() != "status(99)" {
		t.Errorf("unknown status name: %s", Status(99).String())
	}
}

// TestStatusUnavailableRoundTrip pins the router's backend-down status:
// it parses, re-encodes byte-identically, and the next status byte up is
// still rejected as unknown.
func TestStatusUnavailableRoundTrip(t *testing.T) {
	enc, err := AppendResponse(nil, &Response{
		Op: OpSearch, Status: StatusUnavailable, Err: "shard 2 unavailable",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusUnavailable || got.Err != "shard 2 unavailable" {
		t.Fatalf("round trip = %+v", got)
	}
	re, err := AppendResponse(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs:\n in %x\nout %x", enc, re)
	}
	bad := append([]byte(nil), enc...)
	bad[1] = uint8(maxStatus) + 1
	if _, err := ParseResponse(bad); !errors.Is(err, ErrBadStatus) {
		t.Fatalf("status %d accepted: %v", maxStatus+1, err)
	}
}
