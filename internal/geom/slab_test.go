package geom

import "testing"

// TestSlab pins the slab's contract: what Alloc hands out is zeroed, has
// cap == len so an append cannot reach its neighbour, is never moved or
// reused by later allocations, and comes in chunks of the caller's size,
// capped at slabLast, or of the request when that is larger.
func TestSlab(t *testing.T) {
	var s Slab
	out := make([][]float64, 3000)
	for i := range out {
		c := s.Alloc(4, 4*len(out))
		for j, v := range c {
			if v != 0 {
				t.Fatalf("allocation %d: coordinate %d is %v, want 0", i, j, v)
			}
			c[j] = float64(4*i + j)
		}
		if cap(c) != 4 {
			t.Fatalf("allocation %d: cap %d, want 4", i, cap(c))
		}
		_ = append(c, -1)
		out[i] = c
	}
	for i, c := range out {
		for j, v := range c {
			if v != float64(4*i+j) {
				t.Fatalf("allocation %d moved or was overwritten: %v", i, c)
			}
		}
	}

	// 12 000 coordinates asked for in chunks of 12 000 come in chunks of
	// slabLast: three of them.
	if n := testing.AllocsPerRun(10, func() {
		var s Slab
		for range out {
			s.Alloc(4, 4*len(out))
		}
	}); n != 3 {
		t.Errorf("12 000 coordinates cost %v allocations, want 3", n)
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
