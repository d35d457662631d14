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
//
// A question about a run of records — its MBR (UnionRecords), its first
// invalid record (FirstInvalid) — has one kernel here, built as View's page
// kernels are: a k = 2 arm over a constant 40-byte stride and one strided
// loop for any other k, which agree on any words, NaNs and signed zeros
// included, with the word loops this package's tests keep as references.

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

// RecordCenter returns the centre on axis d of the record rec starts with,
// Min + (Max − Min)/2 as geom.Rect.CenterAxis computes it: STR's sort key.
func RecordCenter(rec []byte, d int) float64 {
	lo, hi := RecordWord(rec, 2*d), RecordWord(rec, 2*d+1)
	return lo + (hi-lo)/2
}

// RecordRectInto decodes the rectangle of the record rec starts with into
// dst, whose Min and Max have the record's number of axes.
func RecordRectInto(rec []byte, dst *geom.Rect) {
	for d := range dst.Min {
		dst.Min[d], dst.Max[d] = RecordWord(rec, 2*d), RecordWord(rec, 2*d+1)
	}
}

// UnionRecords grows dst, a rectangle of k axes, over the records of k axes
// recs holds: per axis it takes a record's Min where it is less than dst's
// and its Max where it is greater, record by record in order, exactly as
// geom.Rect.UnionInPlace grows a rectangle, so a node's MBR is the words of
// its records, a NaN bound stays and a NaN word is passed over. Seeded with
// a run's first record (RecordRectInto), it is the MBR of a run of records:
// a node's, for its parent record (the bulk loader), its page (View.MBRInto)
// and a sweep's prefixes (TGS).
func UnionRecords(dst *geom.Rect, recs []byte) {
	if len(dst.Min) == 2 {
		const size = 2*16 + 8 // EntrySize(2)
		x0, x1, y0, y1 := dst.Min[0], dst.Max[0], dst.Min[1], dst.Max[1]
		for ; len(recs) >= size; recs = recs[size:] {
			r := recs[:size:size]
			if v := RecordWord(r, 0); v < x0 {
				x0 = v
			}
			if v := RecordWord(r, 1); v > x1 {
				x1 = v
			}
			if v := RecordWord(r, 2); v < y0 {
				y0 = v
			}
			if v := RecordWord(r, 3); v > y1 {
				y1 = v
			}
		}
		dst.Min[0], dst.Max[0], dst.Min[1], dst.Max[1] = x0, x1, y0, y1
		return
	}
	// Each word of dst sees the records' words in record order whichever
	// loop is outer, so the strided loop takes an axis at a time, its two
	// bounds in registers, down the array: k passes over a page in cache.
	size := EntrySize(len(dst.Min))
	n := len(recs) / size
	for d := range dst.Min {
		lo, hi := dst.Min[d], dst.Max[d]
		for i, off := 0, 16*d; i < n; i, off = i+1, off+size {
			w := recs[off : off+16 : off+16]
			if v := RecordWord(w, 0); v < lo {
				lo = v
			}
			if v := RecordWord(w, 1); v > hi {
				hi = v
			}
		}
		dst.Min[d], dst.Max[d] = lo, hi
	}
}

// FirstInvalid returns the index of the first record of recs, whole records
// of dims axes, that is not a well-formed rectangle — a NaN word or Min >
// Max on some axis, geom.Rect.Valid over the words — or the number of
// records if every one is: MakeView's rectangle check, FillRecords' and the
// streaming bulk loader's on each record. One !(lo <= hi) per axis is true
// for a NaN on either side and for an inversion, the three tests in one
// comparison; the k = 2 arm takes 1.7 ns a record.
func FirstInvalid(recs []byte, dims int) int {
	i := 0
	if dims == 2 {
		const size = 2*16 + 8 // EntrySize(2)
		for ents := recs; len(ents) >= size; i, ents = i+1, ents[size:] {
			x0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[0:]))
			x1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[8:]))
			y0 := math.Float64frombits(binary.LittleEndian.Uint64(ents[16:]))
			y1 := math.Float64frombits(binary.LittleEndian.Uint64(ents[24:]))
			if !(x0 <= x1) || !(y0 <= y1) {
				return i
			}
		}
		return i
	}
	size := EntrySize(dims)
	for ; len(recs) >= size; i, recs = i+1, recs[size:] {
		for d := 0; d < dims; d++ {
			if !(RecordWord(recs, 2*d) <= RecordWord(recs, 2*d+1)) {
				return i
			}
		}
	}
	return i
}

// RecordRef returns the ref of the record of dims axes rec starts with.
func RecordRef(rec []byte, dims int) uint64 {
	return binary.LittleEndian.Uint64(rec[16*dims:])
}
