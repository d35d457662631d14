package node

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"strtree/internal/geom"
)

// appendRecords encodes entries as FillRecords takes them: whole records in
// the page layout, per axis the Min then the Max word, then the ref.
func appendRecords(dst []byte, entries []Entry) []byte {
	for _, e := range entries {
		for d := range e.Rect.Min {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Rect.Min[d]))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Rect.Max[d]))
		}
		dst = binary.LittleEndian.AppendUint64(dst, e.Ref)
	}
	return dst
}

// garbagePage is a page of the given size holding a previous image and junk:
// what a recycled frame looks like before a fill.
func garbagePage(size int, seed int64) []byte {
	page := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(page)
	return page
}

// checkFill fills a garbage page from recs and requires either the image
// Marshal writes for the entries recs decodes to (want non-nil) or a
// rejection that leaves every byte of the page as it was (want nil).
func checkFill(t *testing.T, pageSize, level, dims int, recs []byte, want *Node, seed int64) {
	t.Helper()
	page := garbagePage(pageSize, seed)
	before := bytes.Clone(page)
	err := FillRecords(page, level, dims, recs)
	if want == nil {
		if err == nil {
			t.Fatalf("level %d dims %d, %d record bytes on a %d-byte page: accepted", level, dims, len(recs), pageSize)
		}
		if !bytes.Equal(page, before) {
			t.Fatalf("rejected fill (%v) changed the page", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("level %d dims %d, %d entries: %v", level, dims, len(want.Entries), err)
	}
	ref := make([]byte, pageSize)
	if err := Marshal(want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, ref) {
		t.Fatalf("level %d dims %d, %d entries: the filled page differs from Marshal's", level, dims, len(want.Entries))
	}
	if _, err := MakeView(page); err != nil {
		t.Fatalf("filled page does not validate: %v", err)
	}
}

// TestFillRecords holds the page-fill primitive to Marshal over every shape
// the write path fills — empty to full, leaf and internal, 1 to 8 axes, over
// a page that held garbage — and to its all-or-nothing rejections: each of
// Marshal's range checks, a torn record, a run that overflows the page, and
// an invalid rectangle (NaN on either side, an inversion) first, in the
// middle or last, at k = 2 (the strided arm) and k = 3.
func TestFillRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, dims := range []int{1, 2, 3, 4, 8} {
		full := Capacity(4096, dims)
		for _, count := range []int{0, 1, full / 2, full} {
			for _, level := range []int{0, 3, math.MaxUint16} {
				n := sampleNode(level, dims, count, rng)
				checkFill(t, 4096, level, dims, appendRecords(nil, n.Entries), n, int64(count))
			}
		}
	}
	// Sides Marshal stores bit for bit: -0, infinities, the extremes.
	odd := &Node{Level: 1, Dims: 2, Entries: []Entry{
		{Rect: geom.R2(math.Copysign(0, -1), 0, 0, math.Copysign(0, -1)), Ref: 1},
		{Rect: geom.R2(math.Inf(-1), -math.MaxFloat64, math.Inf(1), math.MaxFloat64), Ref: math.MaxUint64},
		{Rect: geom.R2(math.SmallestNonzeroFloat64, 1e300, math.SmallestNonzeroFloat64, math.Inf(1)), Ref: 0},
	}}
	checkFill(t, 4096, 1, 2, appendRecords(nil, odd.Entries), odd, 1)

	for _, dims := range []int{2, 3} {
		n := sampleNode(0, dims, 40, rng)
		recs := appendRecords(nil, n.Entries)
		size := EntrySize(dims)
		for _, at := range []int{0, 17, 39} {
			for _, bad := range [][2]float64{{math.NaN(), 1}, {0, math.NaN()}, {1, 0}} {
				corrupt := bytes.Clone(recs)
				axis := at % dims
				binary.LittleEndian.PutUint64(corrupt[at*size+16*axis:], math.Float64bits(bad[0]))
				binary.LittleEndian.PutUint64(corrupt[at*size+16*axis+8:], math.Float64bits(bad[1]))
				checkFill(t, 4096, 0, dims, corrupt, nil, int64(at))
			}
		}
		checkFill(t, 4096, 0, dims, recs[:len(recs)-1], nil, 2)     // a torn record
		checkFill(t, HeaderSize+len(recs)-1, 0, dims, recs, nil, 3) // one byte short
		checkFill(t, HeaderSize+len(recs), 0, dims, recs, n, 4)     // exactly fits
		checkFill(t, 4096, -1, dims, recs, nil, 5)                  // level below range
		checkFill(t, 4096, math.MaxUint16+1, dims, recs, nil, 6)    // level above range
	}
	checkFill(t, 4096, 0, 0, nil, nil, 7)                                            // dims below range
	checkFill(t, 1<<14, 0, 256, nil, nil, 8)                                         // dims above range
	checkFill(t, 1<<22, 0, 1, make([]byte, (math.MaxUint16+1)*EntrySize(1)), nil, 9) // count above the format's limit
}

// fuzzWord maps a byte to a coordinate: a coarse grid, so ties and
// inversions are common, with the words that break naive code at the top
// of the range — including a NaN, which FillRecords must refuse.
func fuzzWord(b byte) float64 {
	special := [...]float64{
		math.NaN(), math.Inf(-1), -math.MaxFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1),
	}
	if i := int(b) - (256 - len(special)); i >= 0 {
		return special[i]
	}
	return float64(b) / 4
}

// FuzzFillRecords decodes a record run — dimensionality, level, page size,
// then per record one byte per word — and holds FillRecords to Marshal of the
// entries the run decodes to when they are all valid rectangles that fit the
// page, and to a rejection that leaves the page untouched otherwise. A set
// low bit in the flags byte passes the remaining bytes through raw instead,
// torn records and arbitrary words included.
func FuzzFillRecords(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0, 1, 2, 3, 4, 9, 5, 6, 7, 8, 10})
	f.Add([]byte{0, 0, 0, 0, 248, 0, 1})           // a NaN Min
	f.Add([]byte{2, 2, 1, 7, 5, 4, 1, 2, 3, 4, 0}) // an inversion
	f.Add([]byte{1, 1, 2, 0, 1, 2, 3})             // raw, torn
	f.Add(append([]byte{1, 0, 0, 0}, bytes.Repeat([]byte{1, 2, 3, 4, 9}, 7)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		dims, raw := 1+int(data[0]%4), data[1]&1 != 0
		pageSize := []int{HeaderSize + 3*EntrySize(dims), 256, 1024, 4096}[data[2]%4]
		level := int(data[3]) * 257
		data = data[4:]
		if raw {
			want := wantFill(data, level, dims, pageSize)
			checkFill(t, pageSize, level, dims, data, want, int64(len(data)))
			return
		}
		var entries []Entry
		for len(data) >= 2*dims+1 {
			r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
			for d := 0; d < dims; d++ {
				r.Min[d], r.Max[d] = fuzzWord(data[2*d]), fuzzWord(data[2*d+1])
			}
			entries = append(entries, Entry{Rect: r, Ref: uint64(data[2*dims]) * 0x0101010101010101})
			data = data[2*dims+1:]
		}
		recs := appendRecords(nil, entries)
		checkFill(t, pageSize, level, dims, recs, wantFill(recs, level, dims, pageSize), int64(len(recs)))
	})
}

// wantFill is the fuzz target's reference verdict: the node recs decodes to,
// by Unmarshal's rules for a rectangle, if FillRecords must accept it; nil if
// it must refuse.
func wantFill(recs []byte, level, dims, pageSize int) *Node {
	size := EntrySize(dims)
	if len(recs)%size != 0 || HeaderSize+len(recs) > pageSize {
		return nil
	}
	n := &Node{Level: level, Dims: dims}
	for ; len(recs) > 0; recs = recs[size:] {
		e := Entry{Rect: geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}}
		for d := 0; d < dims; d++ {
			e.Rect.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(recs[16*d:]))
			e.Rect.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(recs[16*d+8:]))
		}
		e.Ref = binary.LittleEndian.Uint64(recs[16*dims:])
		if !e.Rect.Valid() {
			return nil
		}
		n.Entries = append(n.Entries, e)
	}
	return n
}
