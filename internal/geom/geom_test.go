package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPt2AndDim(t *testing.T) {
	p := Pt2(0.25, 0.75)
	if r := PointRect(p); r.Dim() != 2 {
		t.Fatalf("PointRect(p).Dim() = %d, want 2", r.Dim())
	}
	if p[0] != 0.25 || p[1] != 0.75 {
		t.Fatalf("Pt2 coords = %v", p)
	}
}

func TestPointEqual(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Pt2(1, 2), Pt2(1, 2), true},
		{Pt2(1, 2), Pt2(2, 1), false},
		{Pt2(1, 2), Point{1, 2, 3}, false},
		{Point{}, Point{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPointCloneIndependent(t *testing.T) {
	p := Pt2(1, 2)
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestPointString(t *testing.T) {
	if got := Pt2(0.5, 1).String(); got != "(0.5, 1)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestR2PanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("R2 with inverted x did not panic")
		}
	}()
	R2(1, 0, 0, 1)
}

func TestNewRectReorders(t *testing.T) {
	r, err := NewRect(Pt2(1, 0), Pt2(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(R2(0, 0, 1, 1)) {
		t.Fatalf("NewRect = %v, want unit square", r)
	}
}

func TestNewRectErrors(t *testing.T) {
	if _, err := NewRect(Pt2(0, 0), Point{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewRect(Pt2(math.NaN(), 0), Pt2(1, 1)); err == nil {
		t.Error("NaN coordinate accepted")
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{R2(0, 0, 1, 1), true},
		{PointRect(Pt2(0.5, 0.5)), true},
		{Rect{Min: Pt2(0, 0), Max: Point{1}}, false},
		{Rect{Min: Pt2(1, 0), Max: Pt2(0, 1)}, false},
		{Rect{Min: Pt2(math.NaN(), 0), Max: Pt2(1, 1)}, false},
		{Rect{}, false},
	}
	for i, c := range cases {
		if got := c.r.Valid(); got != c.want {
			t.Errorf("case %d: Valid(%v) = %v, want %v", i, c.r, got, c.want)
		}
	}
}

func TestAreaMargin2D(t *testing.T) {
	r := R2(0, 0, 2, 3)
	if got := r.Area(); got != 6 {
		t.Errorf("Area = %g, want 6", got)
	}
	// 2-D margin is the perimeter: 2*(2+3) = 10.
	if got := r.Margin(); got != 10 {
		t.Errorf("Margin = %g, want 10", got)
	}
	if got := PointRect(Pt2(1, 1)).Area(); got != 0 {
		t.Errorf("point area = %g, want 0", got)
	}
}

func TestAreaMargin3D(t *testing.T) {
	r := Rect{Min: Point{0, 0, 0}, Max: Point{1, 2, 3}}
	if got := r.Area(); got != 6 {
		t.Errorf("3-D volume = %g, want 6", got)
	}
	// 3-D margin: 4*(1+2+3) = 24 (sum of edge lengths).
	if got := r.Margin(); got != 24 {
		t.Errorf("3-D margin = %g, want 24", got)
	}
}

func TestCenter(t *testing.T) {
	r := R2(0, 1, 2, 3)
	if r.CenterAxis(0) != 1 || r.CenterAxis(1) != 2 {
		t.Fatalf("CenterAxis = (%g, %g)", r.CenterAxis(0), r.CenterAxis(1))
	}
}

func TestSide(t *testing.T) {
	r := R2(0, 1, 2, 4)
	if r.Side(0) != 2 || r.Side(1) != 3 {
		t.Fatalf("Side = (%g, %g), want (2, 3)", r.Side(0), r.Side(1))
	}
}

func TestIntersects(t *testing.T) {
	a := R2(0, 0, 1, 1)
	cases := []struct {
		b    Rect
		want bool
	}{
		{R2(0.5, 0.5, 2, 2), true},
		{R2(1, 1, 2, 2), true}, // touching corner counts (closed boxes)
		{R2(1.001, 0, 2, 1), false},
		{R2(0.25, 0.25, 0.75, 0.75), true}, // containment is intersection
		{R2(-1, -1, 2, 2), true},           // b contains a
		{R2(0, 2, 1, 3), false},            // disjoint in y only
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: %v.Intersects(%v) = %v, want %v", i, a, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("case %d: intersection not symmetric", i)
		}
	}
}

func TestContains(t *testing.T) {
	a := R2(0, 0, 1, 1)
	if !a.Contains(R2(0, 0, 1, 1)) {
		t.Error("rect should contain itself")
	}
	if !a.Contains(R2(0.2, 0.2, 0.8, 0.8)) {
		t.Error("inner rect not contained")
	}
	if a.Contains(R2(0.5, 0.5, 1.5, 1)) {
		t.Error("overlapping rect reported as contained")
	}
	if !a.ContainsPoint(Pt2(1, 1)) {
		t.Error("boundary point not contained")
	}
	if a.ContainsPoint(Pt2(1.01, 0.5)) {
		t.Error("outside point contained")
	}
}

func TestUnion(t *testing.T) {
	a, b := R2(0, 0, 1, 1), R2(2, -1, 3, 0.5)
	u := a.Union(b)
	if !u.Equal(R2(0, -1, 3, 1)) {
		t.Fatalf("Union = %v", u)
	}
	// In place.
	c := a.Clone()
	c.UnionInPlace(b)
	if !c.Equal(u) {
		t.Fatalf("UnionInPlace = %v, want %v", c, u)
	}
	// Original untouched by Union.
	if !a.Equal(R2(0, 0, 1, 1)) {
		t.Fatal("Union mutated its receiver")
	}
}

func TestIntersect(t *testing.T) {
	a := R2(0, 0, 1, 1)
	got, ok := a.Intersect(R2(0.5, 0.5, 2, 2))
	if !ok || !got.Equal(R2(0.5, 0.5, 1, 1)) {
		t.Fatalf("Intersect = %v, %v", got, ok)
	}
	if _, ok := a.Intersect(R2(2, 2, 3, 3)); ok {
		t.Fatal("disjoint rects reported intersecting")
	}
}

func TestEnlargement(t *testing.T) {
	a := R2(0, 0, 1, 1)
	if got := a.Enlargement(R2(0.2, 0.2, 0.8, 0.8)); got != 0 {
		t.Errorf("enlargement by contained rect = %g, want 0", got)
	}
	if got := a.Enlargement(R2(0, 0, 2, 1)); got != 1 {
		t.Errorf("enlargement = %g, want 1", got)
	}
}

func TestMBR(t *testing.T) {
	rs := []Rect{R2(0, 0, 1, 1), R2(2, 2, 3, 3), R2(-1, 0.5, 0, 0.6)}
	if got := MBR(rs); !got.Equal(R2(-1, 0, 3, 3)) {
		t.Fatalf("MBR = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MBR of empty set did not panic")
		}
	}()
	MBR(nil)
}

func TestClamp(t *testing.T) {
	u := UnitSquare()
	if got := u.Clamp(Pt2(1.3, -0.2)); !got.Equal(Pt2(1, 0)) {
		t.Fatalf("Clamp = %v", got)
	}
	if got := u.Clamp(Pt2(0.5, 0.5)); !got.Equal(Pt2(0.5, 0.5)) {
		t.Fatalf("Clamp of interior point = %v", got)
	}
}

func TestUnitCube(t *testing.T) {
	c := UnitCube(3)
	if c.Dim() != 3 || c.Area() != 1 {
		t.Fatalf("UnitCube(3) = %v", c)
	}
	if !UnitCube(2).Equal(UnitSquare()) {
		t.Fatal("UnitCube(2) != UnitSquare()")
	}
}

func TestRectString(t *testing.T) {
	if got := R2(0, 0, 1, 2).String(); got != "[(0, 0) .. (1, 2)]" {
		t.Fatalf("String = %q", got)
	}
}

// randRect produces a valid random rectangle in roughly [-10,10]^2 for
// property tests.
func randRect(rng *rand.Rand) Rect {
	x0, y0 := rng.Float64()*20-10, rng.Float64()*20-10
	r, _ := NewRect(Pt2(x0, y0), Pt2(x0+rng.Float64()*5, y0+rng.Float64()*5))
	return r
}

func TestPropUnionContainsBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionAreaMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		u := a.Union(b)
		return u.Area() >= a.Area() && u.Area() >= b.Area() && u.Margin() >= a.Margin()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectSymmetricAndContained(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 || ok1 != a.Intersects(b) {
			return false
		}
		if !ok1 {
			return true
		}
		return i1.Equal(i2) && a.Contains(i1) && b.Contains(i1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropContainmentImpliesIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		if a.Contains(b) && !a.Intersects(b) {
			return false
		}
		u := a.Union(b)
		// Center of each rect must be inside the union.
		return u.ContainsPoint(Pt2(a.CenterAxis(0), a.CenterAxis(1))) &&
			u.ContainsPoint(Pt2(b.CenterAxis(0), b.CenterAxis(1)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEnlargementNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		return a.Enlargement(b) >= -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersects(b *testing.B) {
	r := R2(0.2, 0.2, 0.4, 0.4)
	q := R2(0.3, 0.3, 0.5, 0.5)
	for i := 0; i < b.N; i++ {
		if !r.Intersects(q) {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkUnionInPlace(b *testing.B) {
	r := R2(0.2, 0.2, 0.4, 0.4)
	q := R2(0.3, 0.3, 0.5, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.UnionInPlace(q)
	}
}
