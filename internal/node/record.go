package node

import (
	"encoding/binary"
	"math"
	"slices"

	"strtree/internal/geom"
)

// A page record is one entry as a page stores it: EntrySize(dims) bytes, per
// axis the Min then the Max word (little-endian float64 bits), then the ref.
// An array of records is what FillRecords copies onto a page, what a bulk
// load sorts and packs, and what the dynamic write path stages.

// AppendRecord appends (r, ref) to dst as one page record.
func AppendRecord(dst []byte, r geom.Rect, ref uint64) []byte {
	n, size := len(dst), EntrySize(len(r.Min))
	dst = slices.Grow(dst, size)[:n+size]
	PutRecord(dst[n:], r, ref)
	return dst
}

// PutRecord writes (r, ref) as the page record rec starts with, which has
// room for EntrySize(r.Dim()) bytes.
func PutRecord(rec []byte, r geom.Rect, ref uint64) {
	k := len(r.Min)
	_ = rec[16*k+7]
	for d := 0; d < k; d++ {
		binary.LittleEndian.PutUint64(rec[16*d:], math.Float64bits(r.Min[d]))
		binary.LittleEndian.PutUint64(rec[16*d+8:], math.Float64bits(r.Max[d]))
	}
	binary.LittleEndian.PutUint64(rec[16*k:], ref)
}

// RecordWord returns word w of the record rec starts with: axis d's Min is
// word 2d, its Max word 2d+1.
func RecordWord(rec []byte, w int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[8*w:]))
}

// RecordRef returns the ref of the record of dims axes rec starts with.
func RecordRef(rec []byte, dims int) uint64 {
	return binary.LittleEndian.Uint64(rec[16*dims:])
}
