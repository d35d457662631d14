package strtree

// Model-based randomized testing at the public API level: the tree is
// driven through long random operation sequences mirrored into a naive
// reference model; at every checkpoint the tree must answer exactly like
// the model and pass structural validation. This complements the unit
// tests by exploring interactions no hand-written case covers.

import (
	"math/rand"
	"testing"
)

// refModel is the brute-force oracle.
type refModel struct {
	items map[uint64]Rect
}

func (m *refModel) count(q Rect) int {
	n := 0
	for _, r := range m.items {
		if q.Intersects(r) {
			n++
		}
	}
	return n
}

func (m *refModel) countWithin(q Rect) int {
	n := 0
	for _, r := range m.items {
		if q.Contains(r) {
			n++
		}
	}
	return n
}

func TestModelRandomOps(t *testing.T) {
	// The rows are named for the splits they ran until the tile cut displaced
	// those (Guttman's in PR 24, R* in PR 26); they run it, at three fan-outs,
	// the last with forced reinsertion.
	configs := []struct {
		name string
		opts Options
	}{
		{"linear", Options{Capacity: 6}},
		{"quadratic", Options{Capacity: 10}},
		{"rstar", Options{Capacity: 8, ForcedReinsert: true}},
	}
	for ci, c := range configs {
		opts := c.opts
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tree, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			model := &refModel{items: map[uint64]Rect{}}
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			nextID := uint64(0)

			randRect := func() Rect {
				x, y := rng.Float64(), rng.Float64()
				w, h := rng.Float64()*0.1, rng.Float64()*0.1
				if rng.Intn(5) == 0 { // degenerate shapes stress ties
					w, h = 0, 0
				}
				r, err := NewRect(Pt2(x, y), Pt2(min1(x+w), min1(y+h)))
				if err != nil {
					t.Fatal(err)
				}
				return r
			}

			for op := 0; op < 3000; op++ {
				switch {
				case len(model.items) == 0 || rng.Intn(5) < 3: // insert
					r := randRect()
					if err := tree.Insert(r, nextID); err != nil {
						t.Fatalf("op %d insert: %v", op, err)
					}
					model.items[nextID] = r
					nextID++
				case rng.Intn(2) == 0: // delete one
					var id uint64
					for id = range model.items {
						break
					}
					ok, err := tree.Delete(model.items[id], id)
					if err != nil {
						t.Fatalf("op %d delete: %v", op, err)
					}
					if !ok {
						t.Fatalf("op %d: live item %d not found", op, id)
					}
					delete(model.items, id)
				default: // range delete
					x, y := rng.Float64(), rng.Float64()
					q, _ := NewRect(Pt2(x, y), Pt2(min1(x+0.05), min1(y+0.05)))
					want := model.count(q)
					got, err := tree.DeleteRange(q)
					if err != nil {
						t.Fatalf("op %d range delete: %v", op, err)
					}
					if got != want {
						t.Fatalf("op %d: range delete removed %d, model says %d", op, got, want)
					}
					for id, r := range model.items {
						if q.Intersects(r) {
							delete(model.items, id)
						}
					}
				}

				if op%250 == 249 {
					if err := tree.Validate(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					if tree.Len() != len(model.items) {
						t.Fatalf("op %d: Len %d, model %d", op, tree.Len(), len(model.items))
					}
					for i := 0; i < 5; i++ {
						x, y := rng.Float64(), rng.Float64()
						e := rng.Float64() * 0.4
						q, _ := NewRect(Pt2(x, y), Pt2(min1(x+e), min1(y+e)))
						if got, _ := tree.Count(q); got != model.count(q) {
							t.Fatalf("op %d: count(%v) = %d, model %d", op, q, got, model.count(q))
						}
						within := 0
						if err := tree.SearchWithin(q, func(Item) bool { within++; return true }); err != nil {
							t.Fatal(err)
						}
						if within != model.countWithin(q) {
							t.Fatalf("op %d: within(%v) = %d, model %d", op, q, within, model.countWithin(q))
						}
					}
				}
			}
		})
	}
}

// TestModelPackedThenDynamic starts from a packed tree and continues with
// dynamic churn: the transition is where packed-full nodes meet the
// min-fill machinery.
func TestModelPackedThenDynamic(t *testing.T) {
	tree, err := New(Options{Capacity: 12})
	if err != nil {
		t.Fatal(err)
	}
	model := &refModel{items: map[uint64]Rect{}}
	rng := rand.New(rand.NewSource(200))
	items := randItems(2000, 201)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		model.items[it.ID] = it.Rect
	}
	nextID := uint64(10000)
	for op := 0; op < 1500; op++ {
		if rng.Intn(2) == 0 {
			x, y := rng.Float64(), rng.Float64()
			r, _ := NewRect(Pt2(x, y), Pt2(min1(x+0.02), min1(y+0.02)))
			if err := tree.Insert(r, nextID); err != nil {
				t.Fatal(err)
			}
			model.items[nextID] = r
			nextID++
		} else {
			var id uint64
			for id = range model.items {
				break
			}
			if _, err := tree.Delete(model.items[id], id); err != nil {
				t.Fatal(err)
			}
			delete(model.items, id)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != len(model.items) {
		t.Fatalf("Len %d, model %d", tree.Len(), len(model.items))
	}
	for i := 0; i < 25; i++ {
		x, y := rng.Float64(), rng.Float64()
		q, _ := NewRect(Pt2(x, y), Pt2(min1(x+0.3), min1(y+0.3)))
		if got, _ := tree.Count(q); got != model.count(q) {
			t.Fatalf("count(%v) = %d, model %d", q, got, model.count(q))
		}
	}
}
