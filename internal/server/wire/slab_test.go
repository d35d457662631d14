package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"
	"testing/iotest"

	"strtree/internal/geom"
)

// searchResponse is an encoded OpSearch answer of n distinct items.
func searchResponse(t testing.TB, n int) []byte {
	t.Helper()
	items := make([]Item, n)
	for i := range items {
		x := float64(i)
		items[i] = Item{Rect: geom.R2(x, x+0.25, x+0.5, x+0.75), ID: uint64(i)}
	}
	enc, err := AppendResponse(nil, &Response{Op: OpSearch, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestParseAllocs is the codec's allocation gate: what a parsed message
// costs is a small fixed count — the message, its item slice and one
// coordinate chunk per 4 096 coordinates — not two per rectangle.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	parse := func(payload []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := ParseResponse(payload); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := parse(searchResponse(t, 100)), parse(searchResponse(t, 400))
	t.Logf("ParseResponse: %v allocs at 100 items, %v at 400", small, large)
	if small > 4 {
		t.Errorf("ParseResponse of 100 items = %v allocs, want <= 4", small)
	}
	// 300 more items are 1 200 more coordinates: within one more chunk.
	if large-small > 1 {
		t.Errorf("ParseResponse of 400 items = %v allocs, %v at 100: the count grows with the items", large, small)
	}

	windows := make([]geom.Rect, 16)
	for i := range windows {
		windows[i] = geom.R2(0, 0, float64(i+1), 1)
	}
	for _, tc := range []struct {
		req  *Request
		want float64
	}{
		{&Request{Op: OpSearch, Query: geom.R2(0, 0, 1, 1)}, 2},   // the request, its coordinates
		{&Request{Op: OpNearest, Point: geom.Pt2(0, 0), K: 3}, 2}, // likewise
		{&Request{Op: OpBatch, Batch: windows}, 3},                // and the window slice
		{&Request{Op: OpStats}, 1},                                // no geometry: no slab
	} {
		enc, err := AppendRequest(nil, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := ParseRequest(enc); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.want {
			t.Errorf("ParseRequest(%v) = %v allocs, want <= %v", tc.req.Op, got, tc.want)
		}
	}
}

// TestParsedGeometryIsOwned pins what sharing a slab must not cost: every
// corner has cap == len, so appending to one cannot reach the next; the
// parsed message keeps nothing of the payload, which is a frame buffer
// about to be overwritten; and a hostile item count allocates no more
// than the payload that carries it could hold.
func TestParsedGeometryIsOwned(t *testing.T) {
	payload := searchResponse(t, 300)
	resp, err := ParseResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resp.Items {
		r := resp.Items[i].Rect
		if cap(r.Min) != len(r.Min) || cap(r.Max) != len(r.Max) {
			t.Fatalf("item %d: cap(Min) = %d, cap(Max) = %d for %d dims", i, cap(r.Min), cap(r.Max), len(r.Min))
		}
	}
	for i := range resp.Items[:len(resp.Items)-1] {
		grown := append(resp.Items[i].Rect.Max, -1)
		grown[0] = -1
		_ = append(resp.Items[i].Rect.Min, -1)
	}
	for i := range payload {
		payload[i] = 0xEE
	}
	got, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a parsed response changed when its neighbours were appended to and its payload overwritten")
	}

	req, err := ParseRequest(mustRequest(t, &Request{Op: OpNearest, Point: geom.Pt2(1, 2), K: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if cap(req.Point) != len(req.Point) {
		t.Fatalf("parsed point: cap %d, len %d", cap(req.Point), len(req.Point))
	}

	// A count of four billion items in a 48-byte payload: the parse fails
	// as truncated having allocated next to nothing.
	hostile := []byte{Version, uint8(StatusOK), uint8(OpSearch)}
	hostile = binary.LittleEndian.AppendUint32(hostile, 0xFFFFFFFF)
	hostile = append(hostile, payload[7:7+41]...)
	if raceEnabled {
		return
	}
	allocated := testing.AllocsPerRun(10, func() {
		if _, err := ParseResponse(hostile); err == nil {
			t.Fatal("hostile count accepted")
		}
	})
	if allocated > 4 {
		t.Errorf("hostile count: %v allocs", allocated)
	}
}

func mustRequest(t testing.TB, req *Request) []byte {
	t.Helper()
	enc, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestFrameBytes pins the bytes on the wire, frame prefix included, for
// one request of each op and a response: assembling a frame in one
// buffer must put on the socket exactly what header-then-payload did.
func TestFrameBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  *Request
		want string
	}{
		{"search", &Request{Op: OpSearch, TimeoutMillis: 250, Query: geom.R2(0, 0.5, 1, 2)},
			"27000000" + "0101fa000000" + "02" + "0000000000000000" + "000000000000e03f" + "000000000000f03f" + "0000000000000040"},
		{"searchpoint", &Request{Op: OpSearchPoint, Point: geom.Pt2(1, 2)},
			"17000000" + "010200000000" + "02" + "000000000000f03f" + "0000000000000040"},
		{"count", &Request{Op: OpCount, Query: geom.R2(0, 0, 1, 1)},
			"27000000" + "010300000000" + "02" + "0000000000000000" + "0000000000000000" + "000000000000f03f" + "000000000000f03f"},
		{"nearest", &Request{Op: OpNearest, Point: geom.Pt2(1, 2), K: 7},
			"1b000000" + "010400000000" + "02" + "000000000000f03f" + "0000000000000040" + "07000000"},
		{"batch", &Request{Op: OpBatch, Batch: []geom.Rect{geom.R2(0, 0, 1, 1)}},
			"2b000000" + "010500000000" + "01000000" + "02" + "0000000000000000" + "0000000000000000" + "000000000000f03f" + "000000000000f03f"},
		{"stats", &Request{Op: OpStats}, "06000000" + "010600000000"},
		{"insert", &Request{Op: OpInsert, Query: geom.R2(0, 0, 1, 1), ID: 9},
			"2f000000" + "010700000000" + "02" + "0000000000000000" + "0000000000000000" + "000000000000f03f" + "000000000000f03f" + "0900000000000000"},
		{"delete", &Request{Op: OpDelete, Query: geom.R2(0, 0, 1, 1), ID: 9},
			"2f000000" + "010800000000" + "02" + "0000000000000000" + "0000000000000000" + "000000000000f03f" + "000000000000f03f" + "0900000000000000"},
	} {
		frame, err := AppendRequest(BeginFrame(nil), tc.req)
		if err == nil {
			frame, err = EndFrame(frame)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(frame); got != tc.want {
			t.Errorf("%s frame:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
	frame, err := AppendResponse(BeginFrame(make([]byte, 0, 64)), &Response{Op: OpCount, Count: 7})
	if err == nil {
		frame, err = EndFrame(frame)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(frame), "0b000000"+"010003"+"0700000000000000"; got != want {
		t.Errorf("count response frame:\n got %s\nwant %s", got, want)
	}
}

// TestReadFrameAnySegmentation: whatever a writer does, a reader accepts
// a frame delivered one byte per Read.
func TestReadFrameAnySegmentation(t *testing.T) {
	payload := searchResponse(t, 50)
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeFrame(&stream, payload); err != nil {
			t.Fatal(err)
		}
	}
	r := iotest.OneByteReader(&stream)
	var buf []byte
	for i := 0; i < 3; i++ {
		got, err := ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame %d differs", i)
		}
		buf = got
	}
	if _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}
