package pack

import (
	"testing"

	"strtree/internal/node"
)

// workered builds one instance of every packing order at the given worker
// count. Every orderer must produce the same permutation at any worker
// count — the guarantee that makes the parallel build pipeline safe to
// enable by default.
func workered(w int) []interface {
	Order(entries []node.Entry, n, level int)
	Name() string
} {
	return []interface {
		Order(entries []node.Entry, n, level int)
		Name() string
	}{
		NX{Workers: w},
		HS{Workers: w},
		STR{Workers: w},
		TGS{Workers: w},
	}
}

// TestOrderersWorkerInvariant checks that every orderer emits the exact
// same entry sequence at Workers 1 and Workers 8, on data with heavy key
// duplication (the coarse square grid makes center-coordinate ties, the
// case an unstable parallel sort would reorder).
func TestOrderersWorkerInvariant(t *testing.T) {
	base := uniformSquares(3*4096+1, 7) // enough for psort to give three workers a chunk each
	// Snap centers onto a coarse grid so duplicate sort keys are common.
	for i := range base {
		r := base[i].Rect
		w := r.Max[0] - r.Min[0]
		h := r.Max[1] - r.Min[1]
		x := float64(int(r.Min[0]*16)) / 16
		y := float64(int(r.Min[1]*16)) / 16
		base[i].Rect.Min[0], base[i].Rect.Max[0] = x, x+w
		base[i].Rect.Min[1], base[i].Rect.Max[1] = y, y+h
	}
	seq := workered(1)
	par := workered(8)
	for i, o1 := range seq {
		o8 := par[i]
		t.Run(o1.Name(), func(t *testing.T) {
			a := append([]node.Entry(nil), base...)
			b := append([]node.Entry(nil), base...)
			o1.Order(a, 10, 0)
			o8.Order(b, 10, 0)
			for j := range a {
				if a[j].Ref != b[j].Ref {
					t.Fatalf("position %d: workers=1 put ref %d, workers=8 put ref %d",
						j, a[j].Ref, b[j].Ref)
				}
			}
		})
	}
}
