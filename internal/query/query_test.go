package query

import (
	"math"
	"testing"

	"strtree/internal/geom"
)

func TestPoints(t *testing.T) {
	qs := Points(500, 1)
	if len(qs) != 500 {
		t.Fatalf("len = %d", len(qs))
	}
	u := geom.UnitSquare()
	for i, q := range qs {
		if q.Area() != 0 {
			t.Fatalf("query %d not a point", i)
		}
		if !u.Contains(q) {
			t.Fatalf("query %d outside unit square: %v", i, q)
		}
	}
}

func TestPointsDeterministic(t *testing.T) {
	a, b := Points(100, 7), Points(100, 7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed, different queries")
		}
	}
	c := Points(100, 8)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds, same queries")
	}
}

func TestRegionsExtentAndClamp(t *testing.T) {
	qs := Regions(2000, Extent1Pct, 2)
	u := geom.UnitSquare()
	clamped := 0
	for i, q := range qs {
		if !u.Contains(q) {
			t.Fatalf("query %d outside unit square: %v", i, q)
		}
		w, h := q.Side(0), q.Side(1)
		if w > Extent1Pct+1e-12 || h > Extent1Pct+1e-12 {
			t.Fatalf("query %d larger than extent: %g x %g", i, w, h)
		}
		if w < Extent1Pct-1e-12 || h < Extent1Pct-1e-12 {
			clamped++
			// Clamped queries must touch the upper boundary.
			if q.Max[0] != 1 && q.Max[1] != 1 {
				t.Fatalf("query %d short of extent without touching boundary: %v", i, q)
			}
		}
	}
	// With extent 0.1, about 19% of queries hit the boundary.
	frac := float64(clamped) / float64(len(qs))
	if frac < 0.10 || frac > 0.30 {
		t.Fatalf("clamped fraction %.3f, expected around 0.19", frac)
	}
}

func TestRegionsMeanArea(t *testing.T) {
	// Unclamped 9% queries cover 0.09 exactly; clamping reduces the mean
	// somewhat. Sanity-check the ballpark.
	qs := Regions(5000, Extent9Pct, 3)
	sum := 0.0
	for _, q := range qs {
		sum += q.Area()
	}
	mean := sum / float64(len(qs))
	if mean < 0.05 || mean > 0.09+1e-9 {
		t.Fatalf("mean area %.4f out of expected range", mean)
	}
}

func TestRegionsInRestrictedBox(t *testing.T) {
	box := geom.R2(0.48, 0.48, 0.6, 0.6)
	qs := RegionsIn(1000, box, 0.03, 4)
	for i, q := range qs {
		if !box.Contains(q) {
			t.Fatalf("query %d escapes the box: %v", i, q)
		}
	}
	ps := PointsIn(1000, box, 5)
	for i, p := range ps {
		if !box.Contains(p) {
			t.Fatalf("point query %d escapes the box: %v", i, p)
		}
	}
}

func TestPaperConstants(t *testing.T) {
	if math.Abs(Extent1Pct*Extent1Pct-0.01) > 1e-12 {
		t.Fatal("1% extent wrong")
	}
	if math.Abs(Extent9Pct*Extent9Pct-0.09) > 1e-12 {
		t.Fatal("9% extent wrong")
	}
}
