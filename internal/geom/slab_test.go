package geom

import "testing"

// TestSlab pins the slab's contract: a clone is equal and independent,
// every corner has cap == len so an append cannot reach its neighbour,
// no chunk handed out is moved or reused by later allocations, and the
// chunk count grows with the logarithm of the rectangles, not with them.
func TestSlab(t *testing.T) {
	var s Slab
	src := make([]Rect, 3000)
	out := make([]Rect, len(src))
	for i := range src {
		x := float64(i)
		src[i] = R2(x, x+1, x+2, x+3)
		out[i] = s.Clone(src[i])
	}
	for i, r := range out {
		if cap(r.Min) != 2 || cap(r.Max) != 2 {
			t.Fatalf("clone %d: cap(Min) %d, cap(Max) %d", i, cap(r.Min), cap(r.Max))
		}
		_ = append(r.Min, -1)
		_ = append(r.Max, -1)
	}
	for i, r := range out {
		if !r.Equal(src[i]) {
			t.Fatalf("clone %d = %v, want %v", i, r, src[i])
		}
	}
	out[0].Min[0] = -5
	if src[0].Min[0] != 0 || out[1].Min[0] != 1 {
		t.Fatal("a clone shares storage with its source or its neighbour")
	}

	allocs := testing.AllocsPerRun(10, func() {
		var s Slab
		for i := range src {
			out[i] = s.Clone(src[i])
		}
	})
	// 12 000 coordinates: chunks of 32, 64, ..., 4096, 4096.
	if allocs > 9 {
		t.Errorf("3000 clones cost %v allocations", allocs)
	}

	// Chunks stop growing at slabLast and stay there: 100 000 clones are
	// 400 000 coordinates in some hundred chunks.
	many := testing.AllocsPerRun(3, func() {
		var s Slab
		for i := 0; i < 100_000; i++ {
			s.Clone(src[i%len(src)])
		}
	})
	if many < 90 || many > 110 {
		t.Errorf("100 000 clones cost %v allocations, want about 400 000/%d", many, slabLast)
	}

	// Alloc honours the caller's chunk size, and a request larger than it.
	var a Slab
	if n := testing.AllocsPerRun(10, func() {
		a = Slab{}
		a.Alloc(3, 8)
		a.Alloc(5, 8) // fills the chunk exactly
		a.Alloc(1, 8) // starts the second
	}); n != 2 {
		t.Errorf("9 coordinates in chunks of 8 cost %v allocations, want 2", n)
	}
	if got := a.Alloc(20, 8); len(got) != 20 || cap(got) != 20 {
		t.Errorf("oversized allocation: len %d cap %d", len(got), cap(got))
	}
}
