package node

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"strtree/internal/geom"
)

// unionRecords grows the MBR record mbr of dims axes over the records recs
// word by word, copying a record's word wherever it is less than mbr's Min
// or greater than its Max: the word loop UnionRecords' two arms are held to.
func unionRecords(mbr, recs []byte, dims int) {
	size := EntrySize(dims)
	for rec := recs; len(rec) >= size; rec = rec[size:] {
		for w := 0; w < 2*dims; w += 2 {
			if lo := RecordWord(rec, w); lo < RecordWord(mbr, w) {
				copy(mbr[8*w:8*w+8], rec[8*w:])
			}
			if hi := RecordWord(rec, w+1); hi > RecordWord(mbr, w+1) {
				copy(mbr[8*w+8:8*w+16], rec[8*w+8:])
			}
		}
	}
}

// recordsMBR is the MBR record of a non-empty run of records by the word
// loop: the first record's words grown over the rest, the first's ref kept.
func recordsMBR(recs []byte, dims int) []byte {
	size := EntrySize(dims)
	mbr := bytes.Clone(recs[:size])
	unionRecords(mbr, recs[size:], dims)
	return mbr
}

// FuzzUnionRecords holds UnionRecords, seeded by RecordRectInto with a run's
// first record and written back by PutRecord, to the word loop at dims 1 to
// 4, the first argument choosing: on arbitrary words — ±0 ties, quiet and
// signalling NaNs in the first record or a later one, inverted boxes,
// infinities — both must write the same bytes, so the k = 2 arm and the
// strided loop compare in record order and carry every word through
// unchanged.
func FuzzUnionRecords(f *testing.F) {
	words := func(ws ...float64) []byte {
		b := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	nz, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	snan := math.Float64frombits(0x7ff0000000000001)
	// At dims 2 records are five words: per axis Min and Max, then the ref.
	seeds := [][]byte{
		words(0, 0, nz, nz, 1, nz, nz, 0, 0, 2, 0, nz, nz, 0, 3),
		words(nan, 1, 0.5, snan, 1, 0.25, nan, snan, 2, 2, -inf, inf, nan, nan, 3),
		words(0.5, 1, 0.5, 0.25, 1, 1, 0.5, 0.75, 0.5, 2, 2, -1, inf, -inf, 3),
		words(1, 2, 3, 4, 5),
	}
	for _, dims := range []uint8{2, 3} {
		for _, s := range seeds {
			f.Add(dims, s)
		}
	}
	f.Fuzz(func(t *testing.T, dims uint8, data []byte) {
		k := 1 + (int(dims)+3)%4 // 1 to 4, each its own value
		size := EntrySize(k)
		recs := data[:len(data)/size*size]
		if len(recs) == 0 {
			return
		}
		want := recordsMBR(recs, k)
		r := geom.Rect{Min: make(geom.Point, k), Max: make(geom.Point, k)}
		RecordRectInto(recs, &r)
		UnionRecords(&r, recs[size:])
		got := make([]byte, size)
		PutRecord(got, r, RecordRef(recs, k))
		if !bytes.Equal(got, want) {
			t.Fatalf("dims %d: UnionRecords wrote % x, the word loop % x", k, got, want)
		}
	})
}
