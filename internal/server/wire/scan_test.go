package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"strtree/internal/geom"
)

// refJoin is the merge the byte join replaced: parse every part, append
// their items list by list in part order, encode the result.
func refJoin(t *testing.T, parts [][]byte) []byte {
	t.Helper()
	var out *Response
	for _, b := range parts {
		p, err := ParseResponse(b)
		if err != nil {
			t.Fatalf("part fails to parse: %v", err)
		}
		if out == nil {
			out = &Response{Status: StatusOK, Op: p.Op, Batch: make([][]Item, len(p.Batch))}
		}
		out.Items = append(out.Items, p.Items...)
		for i := range p.Batch {
			out.Batch[i] = append(out.Batch[i], p.Batch[i]...)
		}
	}
	enc, err := AppendResponse(nil, out)
	if err != nil {
		t.Fatalf("reference merge fails to encode: %v", err)
	}
	return enc
}

// randomItems is up to five items of 1 to 3 dimensions with ordered,
// finite corners.
func randomItems(rng *rand.Rand) []Item {
	items := make([]Item, rng.Intn(6))
	for i := range items {
		d := 1 + rng.Intn(3)
		lo, hi := make(geom.Point, d), make(geom.Point, d)
		for k := range lo {
			lo[k] = rng.NormFloat64()
			hi[k] = lo[k] + rng.Float64()
		}
		items[i] = Item{Rect: geom.Rect{Min: lo, Max: hi}, ID: rng.Uint64()}
	}
	return items
}

// FuzzScanResponse holds the scan to the parse it stands in for, and the
// byte join to the parsed merge it replaced. On any payload, ScanResponse
// and ParseResponse accept and reject alike, with the same error, and
// agree on the lists and matches; a scanned answer re-encodes to its
// payload. When the payload is an OK search, point or batch answer, it is
// the first of 1 to 3 shard answers (the others drawn from seed with its
// op and list count), and joining them as bytes writes what parsing,
// concatenating list by list and encoding writes.
func FuzzScanResponse(f *testing.F) {
	for _, resp := range []*Response{
		{Op: OpSearch, Items: []Item{{Rect: geom.R2(0, 0, 1, 1), ID: 42}, {Rect: geom.R2(0.5, 0.5, 2, 2), ID: 7}}},
		{Op: OpSearchPoint},
		{Op: OpBatch, Batch: [][]Item{{{Rect: geom.R2(0, 0, 1, 1), ID: 1}}, {}, {{Rect: geom.R2(1, 1, 1, 1), ID: 2}}}},
		{Op: OpBatch},
		{Op: OpCount, Count: 7},
		{Op: OpNearest, Neighbors: []Neighbor{{Item: Item{Rect: geom.R2(0, 0, 0.1, 0.1), ID: 3}, Dist: 1.5}}},
		{Op: OpSearch, Status: StatusDeadline, Err: "deadline exceeded"},
	} {
		enc, err := AppendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, int64(len(enc)), uint8(2))
	}

	f.Fuzz(func(t *testing.T, payload []byte, seed int64, shards uint8) {
		parsed, perr := ParseResponse(payload)
		scan, serr := ScanResponse(bytes.Clone(payload))
		if perr != serr {
			t.Fatalf("parse error %v, scan error %v", perr, serr)
		}
		if perr != nil {
			return
		}
		if parsed.Lists() != scan.Lists() || parsed.Matches() != scan.Matches() {
			t.Fatalf("parsed %d lists, %d matches; scanned %d, %d", parsed.Lists(), parsed.Matches(), scan.Lists(), scan.Matches())
		}
		re, err := AppendResponse(nil, scan)
		if err != nil {
			t.Fatalf("scanned response fails to encode: %v", err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("scanned response re-encodes differently:\n in %x\nout %x", payload, re)
		}
		if !scan.Scanned() {
			return
		}

		rng := rand.New(rand.NewSource(seed))
		parts := [][]byte{payload}
		for range int(shards) % 3 {
			other := &Response{Status: StatusOK, Op: scan.Op}
			if scan.Op == OpBatch {
				other.Batch = make([][]Item, scan.Lists())
				for i := range other.Batch {
					other.Batch[i] = randomItems(rng)
				}
			} else {
				other.Items = randomItems(rng)
			}
			enc, err := AppendResponse(nil, other)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, enc)
		}
		scans := make([]*Response, len(parts))
		for i, b := range parts {
			if scans[i], err = ScanResponse(b); err != nil {
				t.Fatalf("part %d fails to scan: %v", i, err)
			}
		}
		joined, err := JoinLists(scans)
		if err != nil {
			t.Fatalf("join of %d parts: %v", len(parts), err)
		}
		got, err := AppendResponse(nil, joined)
		if err != nil {
			t.Fatalf("joined response fails to encode: %v", err)
		}
		if want := refJoin(t, parts); !bytes.Equal(got, want) {
			t.Fatalf("join of %d parts differs from the parsed merge:\n got %x\nwant %x", len(parts), got, want)
		}
	})
}

// TestScanKeepsNoCopy: a scanned list answer holds its payload, and
// scanning one allocates nothing that grows with its items — the Response
// and, for a batch, one offset per window.
func TestScanKeepsNoCopy(t *testing.T) {
	items := make([]Item, 2000)
	for i := range items {
		x := float64(i) / 2000
		items[i] = Item{Rect: geom.R2(x, x, x+0.01, x+0.01), ID: uint64(i)}
	}
	for _, resp := range []*Response{
		{Op: OpSearch, Items: items},
		{Op: OpBatch, Batch: [][]Item{items[:500], items[500:1200], nil, items[1200:]}},
	} {
		enc, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := ScanResponse(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !scan.Scanned() || scan.Items != nil || scan.Batch != nil || scan.Matches() != 2000 {
			t.Fatalf("%v: scanned %+v", resp.Op, scan)
		}
		if raceEnabled {
			continue
		}
		want := 1.0 // the Response
		if resp.Op == OpBatch {
			want++ // the list ends
		}
		if allocs := testing.AllocsPerRun(50, func() { _, _ = ScanResponse(enc) }); allocs > want {
			t.Errorf("%v: scanning %d items = %v allocs, want %v", resp.Op, len(items), allocs, want)
		}
	}
}

// TestJoinListsRefuses: only scanned OK lists of one op and one list count
// join.
func TestJoinListsRefuses(t *testing.T) {
	scan := func(resp *Response) *Response {
		enc, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ScanResponse(enc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	search := scan(&Response{Op: OpSearch})
	for name, parts := range map[string][]*Response{
		"none":        nil,
		"parsed":      {search, {Op: OpSearch}},
		"two ops":     {search, scan(&Response{Op: OpSearchPoint})},
		"list counts": {scan(&Response{Op: OpBatch, Batch: make([][]Item, 2)}), scan(&Response{Op: OpBatch, Batch: make([][]Item, 3)})},
		"not a list":  {scan(&Response{Op: OpCount}), scan(&Response{Op: OpCount})},
		"an error":    {scan(&Response{Op: OpSearch, Status: StatusDeadline}), search},
	} {
		if _, err := JoinLists(parts); err == nil {
			t.Errorf("%s: joined", name)
		}
	}
}
