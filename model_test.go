package strtree

// Model-based randomized testing at the public API level: the tree is
// driven through long random operation sequences mirrored into a naive
// reference model; at every checkpoint the tree must answer exactly like
// the model and pass structural validation. This complements the unit
// tests by exploring interactions no hand-written case covers.

import (
	"math/rand"
	"reflect"
	"slices"
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

// apply runs op on the tree and mirrors it into the model.
func (m *refModel) apply(t *testing.T, tree *Tree, i int, op modelOp) {
	t.Helper()
	if !op.del {
		if err := tree.Insert(op.Rect, op.ID); err != nil {
			t.Fatalf("op %d insert: %v", i, err)
		}
		m.items[op.ID] = op.Rect
		return
	}
	ok, err := tree.Delete(op.Rect, op.ID)
	if err != nil {
		t.Fatalf("op %d delete: %v", i, err)
	}
	if !ok {
		t.Fatalf("op %d: live item %d not found", i, op.ID)
	}
	delete(m.items, op.ID)
}

// modelOp is one step of a random op sequence: insert the item, or delete
// it (a live one).
type modelOp struct {
	Item
	del bool
}

// randomOps draws n ops from seed: while anything is live, an insert with
// probability pInsert, else the delete of a uniformly chosen live item;
// inserts take rectangles from rect and ids from nextID up. live starts as
// the items already in the tree. A delete picks from a slice of live items
// and swap-removes the pick, so the sequence is a function of the seed
// alone: picking the first key a map range yields would leave the choice
// to Go's randomized map order, and a failure would not replay.
func randomOps(seed int64, n int, pInsert float64, live []Item, nextID uint64, rect func(*rand.Rand) Rect) []modelOp {
	rng := rand.New(rand.NewSource(seed))
	live = slices.Clone(live)
	ops := make([]modelOp, n)
	for i := range ops {
		if len(live) == 0 || rng.Float64() < pInsert {
			ops[i] = modelOp{Item: Item{Rect: rect(rng), ID: nextID}}
			live = append(live, ops[i].Item)
			nextID++
			continue
		}
		j := rng.Intn(len(live))
		ops[i] = modelOp{Item: live[j], del: true}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return ops
}

// square returns a generator of side × side squares at uniform corners,
// clipped to the unit square.
func square(side float64) func(*rand.Rand) Rect {
	return func(rng *rand.Rand) Rect {
		x, y := rng.Float64(), rng.Float64()
		return R2(x, y, min1(x+side), min1(y+side))
	}
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
	randRect := func(rng *rand.Rand) Rect {
		x, y := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.1, rng.Float64()*0.1
		if rng.Intn(5) == 0 { // degenerate shapes stress ties
			w, h = 0, 0
		}
		return R2(x, y, min1(x+w), min1(y+h))
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
			for op, o := range randomOps(int64(100+ci), 3000, 0.6, nil, 0, randRect) {
				model.apply(t, tree, op, o)
				if op%250 == 249 {
					if err := tree.CheckInvariants(); err != nil {
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
					}
				}
			}
		})
	}
}

// TestModelPackedThenDynamic starts from a packed tree and continues with
// dynamic churn: the transition is where packed-full nodes meet the
// min-fill machinery. It first draws its ops twice, to hold randomOps to
// its promise: one seed, one sequence, deletes included.
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
	ops := randomOps(200, 1500, 0.5, items, 10000, square(0.02))
	if again := randomOps(200, 1500, 0.5, items, 10000, square(0.02)); !reflect.DeepEqual(ops, again) {
		t.Fatal("two draws of one seed differ, so a failure would not replay")
	}
	for op, o := range ops {
		model.apply(t, tree, op, o)
	}
	if err := tree.CheckInvariants(); err != nil {
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
