package node

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"strtree/internal/geom"
)

// refLeastEnlargement is Guttman's ChooseLeaf step over decoded entries,
// written from geom alone: least Enlargement, then least Area, then lowest
// slot.
func refLeastEnlargement(entries []Entry, r geom.Rect) int {
	best := 0
	for i, e := range entries {
		enl, bestEnl := e.Rect.Enlargement(r), entries[best].Rect.Enlargement(r)
		//strlint:ignore floateq the tie-break under test is exact equality
		if enl < bestEnl || (enl == bestEnl && e.Rect.Area() < entries[best].Rect.Area()) {
			best = i
		}
	}
	return best
}

// checkLeastEnlargement holds the page kernel to the per-entry loop and,
// when the decoded entries are given and hold no NaN arithmetic, both to geom.
func checkLeastEnlargement(t *testing.T, v View, entries []Entry, r geom.Rect) {
	t.Helper()
	scratch := geom.Rect{Min: make(geom.Point, v.Dims()), Max: make(geom.Point, v.Dims())}
	got, each := v.LeastEnlargement(r, &scratch), v.leastEnlargementEach(r, &scratch)
	if got != each {
		t.Fatalf("dims %d count %d rect %v: LeastEnlargement=%d, per-entry=%d", v.Dims(), v.Count(), r, got, each)
	}
	if entries != nil {
		if want := refLeastEnlargement(entries, r); got != want {
			t.Fatalf("dims %d count %d rect %v: LeastEnlargement=%d, geom=%d", v.Dims(), v.Count(), r, got, want)
		}
	}
}

// TestViewLeastEnlargementMatchesReference pins ChooseLeaf's page kernel — the
// k = 2 arm and the any-k loop — to geom over Unmarshal's entries: empty,
// single-entry and full pages; rectangles inside several entries at once
// (enlargement 0 all round: area decides), duplicate entries (slot decides),
// zero-area entries, infinite sides, and the entries' own rectangles.
func TestViewLeastEnlargementMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	inf := math.Inf(1)
	for _, dims := range []int{1, 2, 3, 4} {
		for _, count := range []int{0, 1, 7, Capacity(4096, dims)} {
			n := sampleNode(1, dims, count, rand.New(rand.NewSource(int64(dims*1000+count))))
			if count > 6 {
				// Two pairs of duplicates, a point, and a rectangle with a
				// zero-length side; finite throughout, so geom's answer is
				// defined for every rectangle below.
				n.Entries[3].Rect = n.Entries[1].Rect.Clone()
				n.Entries[5].Rect = n.Entries[0].Rect.Clone()
				n.Entries[4].Rect.Max = n.Entries[4].Rect.Min.Clone()
				n.Entries[6].Rect.Max[dims-1] = n.Entries[6].Rect.Min[dims-1]
			}
			page := make([]byte, 4096)
			if err := Marshal(n, page); err != nil {
				t.Fatal(err)
			}
			v, err := MakeView(page)
			if err != nil {
				t.Fatal(err)
			}
			fill := func(lo, hi float64) geom.Rect {
				r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
				for d := range r.Min {
					r.Min[d], r.Max[d] = lo, hi
				}
				return r
			}
			rects := []geom.Rect{fill(0, 0), fill(0.5, 0.5), fill(1, 1), fill(0, 2), fill(-3, -2), fill(0.9, 1.1)}
			for trial := 0; trial < 200; trial++ {
				r := fill(0, 0)
				for d := range r.Min {
					r.Min[d] = rng.Float64() * 2
					r.Max[d] = r.Min[d] + rng.Float64()*0.2*float64(trial%3)
				}
				rects = append(rects, r)
			}
			for _, e := range n.Entries {
				rects = append(rects, e.Rect, geom.Rect{Min: e.Rect.Min, Max: e.Rect.Min})
			}
			for _, r := range rects {
				checkLeastEnlargement(t, v, n.Entries, r)
			}
			// Infinite sides make Inf - Inf = NaN enlargements, which no
			// comparison orders: the kernel must still do what the loop does.
			for _, r := range []geom.Rect{fill(-inf, inf), fill(inf, inf), fill(-inf, 0.5), fill(-math.MaxFloat64, math.MaxFloat64)} {
				checkLeastEnlargement(t, v, nil, r)
			}
			if count > 6 {
				n.Entries[2].Rect.Min[0], n.Entries[2].Rect.Max[0] = -inf, inf
				n.Entries[6].Rect.Min[dims-1], n.Entries[6].Rect.Max[dims-1] = inf, inf
				if err := Marshal(n, page); err != nil {
					t.Fatal(err)
				}
				for _, r := range rects {
					checkLeastEnlargement(t, v, nil, r)
				}
			}
		}
	}
	// The tie-breaks, spelled out: enlargement 0 in both entries, the smaller
	// one wins; equal areas, the lower slot wins.
	n := &Node{Dims: 2, Entries: []Entry{
		{Rect: geom.R2(0, 0, 4, 4)}, {Rect: geom.R2(1, 1, 3, 3)}, {Rect: geom.R2(1, 1, 3, 3)},
	}}
	page := make([]byte, 4096)
	if err := Marshal(n, page); err != nil {
		t.Fatal(err)
	}
	v, _ := MakeView(page)
	scratch := geom.R2(0, 0, 0, 0)
	if got := v.LeastEnlargement(geom.R2(2, 2, 2.5, 2.5), &scratch); got != 1 {
		t.Fatalf("covered by all three entries: chose %d, want 1 (smaller area, lower slot)", got)
	}
}

// FuzzLeastEnlargement requires ChooseLeaf's k = 2 page kernel to make the
// per-entry loop's choice on any words at all: the page only has to pass the
// header gates, so payloads full of NaNs, infinities and inverted rectangles
// are in, and the rectangle's four coordinates are free.
func FuzzLeastEnlargement(f *testing.F) {
	for _, count := range []int{0, 1, 50, 102} {
		page := make([]byte, 4096)
		if err := Marshal(sampleNode(1, 2, count, rand.New(rand.NewSource(int64(count)))), page); err != nil {
			f.Fatal(err)
		}
		f.Add(page, 0.25, 0.5, 0.75, 1.0)
		f.Add(page, math.Inf(-1), 0.0, math.Inf(1), 0.0)
		f.Add(page, math.NaN(), 1.0, 0.0, math.Copysign(0, -1))
	}
	f.Fuzz(func(t *testing.T, page []byte, x0, y0, x1, y1 float64) {
		v, err := MakeTrustedView(page)
		if err != nil || v.Dims() != 2 {
			return
		}
		checkLeastEnlargement(t, v, nil, geom.Rect{Min: geom.Pt2(x0, y0), Max: geom.Pt2(x1, y1)})
	})
}

// BenchmarkLeastEnlargement prices ChooseLeaf's choice on one full page per
// dimensionality, in ns/entry: "per-entry" is the decode-and-call loop an
// insert's descent ran twice per op, "page" the kernel (its k = 2 arm; at
// k = 3 the two are the same loop).
func BenchmarkLeastEnlargement(b *testing.B) {
	for _, dims := range []int{2, 3} {
		count := Capacity(4096, dims)
		page, _ := marshalSample(b, 1, dims, count, int64(dims))
		v, err := MakeView(page)
		if err != nil {
			b.Fatal(err)
		}
		rects := make([]geom.Rect, 64)
		rng := rand.New(rand.NewSource(17))
		for k := range rects {
			r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
			for d := 0; d < dims; d++ {
				r.Min[d] = rng.Float64() * 2
				r.Max[d] = r.Min[d] + rng.Float64()*0.01
			}
			rects[k] = r
		}
		scratch := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
		sink := 0
		for _, arm := range []struct {
			name   string
			choose func(geom.Rect, *geom.Rect) int
		}{{"per-entry", v.leastEnlargementEach}, {"page", v.LeastEnlargement}} {
			b.Run(fmt.Sprintf("dims=%d/%s", dims, arm.name), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					sink += arm.choose(rects[n%len(rects)], &scratch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/entry")
			})
		}
		_ = sink
	}
}
