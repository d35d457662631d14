package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"strtree/internal/geom"
)

// The field-by-field list reads the stride decoder replaced, kept as the
// reference FuzzItemStrides holds it to: every field is its own bounds-
// checked read, every rectangle its own slab allocation, and the first
// error met in payload order is the one that stands.

func (r *reader) refRect() geom.Rect {
	dims := int(r.u8())
	if r.err != nil {
		return geom.Rect{}
	}
	if dims < 1 || dims > MaxDims {
		r.fail(ErrBadGeometry)
		return geom.Rect{}
	}
	c := r.coords(2 * dims)
	lo, hi := geom.Point(c[:dims:dims]), geom.Point(c[dims:])
	for i := range lo {
		lo[i] = r.finite(r.f64())
	}
	for i := range hi {
		hi[i] = r.finite(r.f64())
	}
	if r.err != nil {
		return geom.Rect{}
	}
	for i := range lo {
		if lo[i] > hi[i] {
			r.fail(ErrBadGeometry)
			return geom.Rect{}
		}
	}
	return geom.Rect{Min: lo, Max: hi}
}

func (r *reader) refItems() []Item {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	var out []Item
	for i := uint32(0); i < n && r.err == nil; i++ {
		rect := r.refRect()
		id := r.u64()
		if r.err == nil {
			out = append(out, Item{Rect: rect, ID: id})
		}
	}
	return out
}

func (r *reader) refNeighbors() []Neighbor {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	var out []Neighbor
	for i := uint32(0); i < n && r.err == nil; i++ {
		rect := r.refRect()
		id := r.u64()
		dist := r.finite(r.f64())
		if r.err == nil {
			out = append(out, Neighbor{Item: Item{Rect: rect, ID: id}, Dist: dist})
		}
	}
	return out
}

func (r *reader) refWindows(n uint32) []geom.Rect {
	var out []geom.Rect
	for i := uint32(0); i < n && r.err == nil; i++ {
		out = append(out, r.refRect())
	}
	return out
}

// The list kinds FuzzItemStrides decodes, by its first argument modulo 3.
const (
	listItems = iota
	listNeighbors
	listWindows
)

// decodeList decodes payload as one list of the given kind (a window
// list's count is the payload's first four bytes, read here) by the
// stride decoder or the reference, returning each record as its rectangle
// and its tail words, the bytes consumed and the error.
func decodeList(kind int, payload []byte, ref bool) (rects []geom.Rect, tails [][2]uint64, off int, err error) {
	r := &reader{buf: payload}
	switch kind {
	case listItems:
		var items []Item
		if ref {
			items = r.refItems()
		} else {
			items = r.items()
		}
		for _, it := range items {
			rects = append(rects, it.Rect)
			tails = append(tails, [2]uint64{it.ID})
		}
	case listNeighbors:
		var nbs []Neighbor
		if ref {
			nbs = r.refNeighbors()
		} else {
			nbs = r.neighbors()
		}
		for _, nb := range nbs {
			rects = append(rects, nb.Item.Rect)
			tails = append(tails, [2]uint64{nb.Item.ID, math.Float64bits(nb.Dist)})
		}
	default:
		n := r.u32()
		if r.err == nil {
			if ref {
				rects = r.refWindows(n)
			} else {
				rects = r.windows(n)
			}
			tails = make([][2]uint64, len(rects))
		}
	}
	return rects, tails, r.off, r.err
}

// record encodes one list record as raw bytes: the dims byte, the given
// coordinate words (which may be fewer or more than 2·dims) and the tail
// words, so that seeds can be invalid in every way.
func record(dims uint8, coords []float64, tail ...uint64) []byte {
	b := []byte{dims}
	for _, v := range coords {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, w := range tail {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// list prefixes records with a count.
func list(count uint32, recs ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, count)
	for _, r := range recs {
		b = append(b, r...)
	}
	return b
}

// FuzzItemStrides holds the stride decoder to the field-by-field reference
// on arbitrary list payloads: both accept and reject the same payloads,
// with the same error, and what both accept decodes to bit-identical
// coordinates, IDs and distances, consuming the same bytes. CI runs it
// for a 30 s smoke on every push, nightly for 10 minutes.
func FuzzItemStrides(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	dist := math.Float64bits(0.5)
	for _, seed := range []struct {
		kind    int
		payload []byte
	}{
		// Mixed dims inside one list.
		{listItems, list(3, record(1, []float64{0, 1}, 7), record(2, []float64{0, 0, 1, 1}, 8), record(3, []float64{0, 0, 0, 1, 1, 1}, 9))},
		{listNeighbors, list(2, record(2, []float64{0, 0, 1, 1}, 1, dist), record(1, []float64{2, 3}, 2, dist))},
		{listWindows, list(2, record(2, []float64{0, 0, 1, 1}), record(4, []float64{0, 0, 0, 0, 1, 1, 1, 1}))},
		// NaN and ±Inf corners, in the min and in the max corner.
		{listItems, list(2, record(2, []float64{0, 0, 1, 1}, 1), record(2, []float64{nan, 0, 1, 1}, 2))},
		{listItems, list(1, record(2, []float64{0, 0, 1, inf}, 1))},
		{listWindows, list(1, record(2, []float64{-inf, 0, 1, 1}))},
		{listNeighbors, list(1, record(2, []float64{0, 0, 1, 1}, 1, math.Float64bits(nan)))},
		// lo > hi.
		{listItems, list(1, record(2, []float64{0, 5, 1, 1}, 1))},
		{listWindows, list(2, record(1, []float64{0, 1}), record(1, []float64{2, 1}))},
		// A count larger than the bytes.
		{listItems, list(1000, record(2, []float64{0, 0, 1, 1}, 1))},
		{listNeighbors, list(0xFFFFFFFF, record(2, []float64{0, 0, 1, 1}, 1, dist))},
		{listWindows, list(3)},
		// Truncation mid-item: inside a coordinate, after ordered and after
		// inverted corners, inside the ID, inside a distance; and a NaN
		// before the cut.
		{listItems, list(1, record(2, []float64{0, 0, 1, 1}, 1))[:4+1+8*2+3]},
		{listItems, list(1, record(2, []float64{0, 0, 1, 1}))},
		{listItems, list(1, record(2, []float64{0, 5, 1, 1}))},
		{listItems, list(1, record(2, []float64{0, 0, 1, 1}, 1))[:4+1+8*4+4]},
		{listNeighbors, list(1, record(2, []float64{0, 0, 1, 1}, 1, dist))[:4+1+8*4+8+5]},
		{listItems, list(2, record(2, []float64{nan, 0}))},
		// Dims out of range, a trailing byte, an empty list.
		{listItems, list(1, record(0, nil, 1))},
		{listWindows, list(1, record(MaxDims+1, make([]float64, 2*(MaxDims+1))))},
		{listItems, append(list(1, record(1, []float64{0, 1}, 1)), 0xAB)},
		{listNeighbors, list(0)},
	} {
		f.Add(uint8(seed.kind), seed.payload)
	}

	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		k := int(kind % 3)
		rects, tails, off, err := decodeList(k, payload, false)
		wantRects, wantTails, wantOff, wantErr := decodeList(k, payload, true)
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("kind %d: err %v, reference %v", k, err, wantErr)
		}
		if err != nil {
			return
		}
		if off != wantOff {
			t.Fatalf("kind %d: consumed %d bytes, reference %d", k, off, wantOff)
		}
		if len(rects) != len(wantRects) {
			t.Fatalf("kind %d: %d records, reference %d", k, len(rects), len(wantRects))
		}
		for i, q := range rects {
			w := wantRects[i]
			if len(q.Min) != len(w.Min) || len(q.Max) != len(w.Max) {
				t.Fatalf("kind %d record %d: %d/%d dims, reference %d/%d", k, i, len(q.Min), len(q.Max), len(w.Min), len(w.Max))
			}
			if cap(q.Min) != len(q.Min) || cap(q.Max) != len(q.Max) {
				t.Fatalf("kind %d record %d: corners share capacity", k, i)
			}
			for j := range q.Min {
				if math.Float64bits(q.Min[j]) != math.Float64bits(w.Min[j]) || math.Float64bits(q.Max[j]) != math.Float64bits(w.Max[j]) {
					t.Fatalf("kind %d record %d: %v, reference %v", k, i, q, w)
				}
			}
			if tails[i] != wantTails[i] {
				t.Fatalf("kind %d record %d: tail %x, reference %x", k, i, tails[i], wantTails[i])
			}
		}
	})
}
