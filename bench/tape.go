package main

import (
	"math"
	"math/rand"
	"sort"

	"strtree/internal/node"
)

// opKind is one kind of tape op.
type opKind uint8

const (
	opPoint opKind = iota
	opSearch
	opCount
	opNearest
	opInsert
	opDelete
	opBatch
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"point", "search", "count", "nearest", "insert", "delete", "batch", "?"}[min(int(k), int(numOpKinds))]
}

func (k opKind) isRead() bool { return k != opInsert && k != opDelete }

// op is one tape entry. Points use (x0, y0); windows and item rectangles
// use all four; id is the item id of an insert or delete, and the index
// into tape.batches for a batch.
type op struct {
	kind           opKind
	x0, y0, x1, y1 float64
	id             uint64
}

// answer is an order-independent digest of an op's result: how many items
// came back and a sum over a mix of their ids (and, for nearest, their
// distances). Tree traversal order, shard concatenation order and a
// linear scan all produce the same answer for the same result set.
type answer struct {
	n uint32
	h uint64
}

func mix(v uint64) uint64 { return (v + 1) * 0x9E3779B97F4A7C15 }

func (a *answer) add(id uint64) {
	a.n++
	a.h += mix(id)
}

func (a *answer) addDist(d float64) { a.h += mix(math.Float64bits(d)) ^ 0xD15 }

// tape is a fixed, seed-determined sequence of ops. check[i] is -1, or
// the index into want of the precomputed answer op i must give.
type tape struct {
	ops     []op
	check   []int32
	want    []answer
	batches [][]op // window lists of opBatch ops
}

// kNearest is the k of every nearest-neighbour op.
const kNearest = 10

// mixEntry is one line of a workload's op mix: share parts of the whole
// are ops of this kind, windows having sides of extent.
type mixEntry struct {
	kind   opKind
	share  int
	extent float64
}

// genMixed builds n ops with the exact composition of mix (shares are
// counts out of n, not probabilities: a sampled mix would move the tape's
// cost by a percent from seed to seed, which is the size of change the
// ledger has to resolve), then shuffles them.
func genMixed(rng *rand.Rand, sliceOps int, mix []mixEntry) []op {
	total := 0
	for _, m := range mix {
		total += m.share
	}
	ops := make([]op, 0, sliceOps)
	for mi, m := range mix {
		n := sliceOps * m.share / total
		if mi == len(mix)-1 {
			n = sliceOps - len(ops)
		}
		for i := 0; i < n; i++ {
			ops = append(ops, genRead(rng, m.kind, m.extent))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// genRead draws one read op: a uniform point, or a window whose
// lower-left corner is uniform in the unit square and whose sides are
// extent, clamped at 1.0 — the paper's query construction
// (internal/query.Regions).
func genRead(rng *rand.Rand, kind opKind, extent float64) op {
	x, y := rng.Float64(), rng.Float64()
	o := op{kind: kind, x0: x, y0: y, x1: x, y1: y}
	if kind == opSearch || kind == opCount {
		o.x1, o.y1 = math.Min(x+extent, 1), math.Min(y+extent, 1)
	}
	return o
}

// queryMix is the tape of query_hot and query_cold.
var queryMix = []mixEntry{
	{opPoint, 40, 0},
	{opSearch, 40, 0.01},
	{opCount, 10, 0.1}, // the paper's 1 % region
	{opNearest, 10, 0},
}

// genQueryTape builds the read tape and marks `samples` ops, spread evenly,
// for checking against the linear-scan oracle.
func genQueryTape(seed int64, ops, samples int) *tape {
	rng := rand.New(rand.NewSource(seed ^ 0x7a9e))
	t := &tape{ops: genMixed(rng, ops, queryMix)}
	t.markSamples(samples, len(t.ops))
	return t
}

// markSamples picks n evenly spaced ops among the first `within` for
// checking; their answers are filled in by the oracle.
func (t *tape) markSamples(n, within int) {
	t.check = make([]int32, len(t.ops))
	for i := range t.check {
		t.check[i] = -1
	}
	if n > within {
		n = within
	}
	for k := 0; k < n; k++ {
		i := k * within / n
		t.check[i] = int32(len(t.want))
		t.want = append(t.want, answer{})
	}
}

// flatItem is an item in the oracle's own layout: a linear scan over a
// flat array shares no code with the tree it checks. An item is in the
// tree for the ops after index born up to and including index died (the
// delete that removes it); the query tapes' items are always there.
type flatItem struct {
	x0, y0, x1, y1 float64
	id             uint64
	born, died     int32
}

const (
	alwaysBorn = -1
	neverDied  = math.MaxInt32
)

func (it *flatItem) liveAt(at int32) bool { return it.born < at && at <= it.died }

func flatten(entries []node.Entry) []flatItem {
	out := make([]flatItem, len(entries))
	for i, e := range entries {
		out[i] = flatItem{e.Rect.Min[0], e.Rect.Min[1], e.Rect.Max[0], e.Rect.Max[1], e.Ref, alwaysBorn, neverDied}
	}
	return out
}

// nearestSet keeps the k nearest candidates seen so far, nearest first.
type nearestSet struct {
	d  []float64
	id []uint64
}

func (ns *nearestSet) offer(d float64, id uint64) {
	if len(ns.d) == kNearest && d >= ns.d[kNearest-1] {
		return
	}
	j := sort.Search(len(ns.d), func(j int) bool { return ns.d[j] > d }) // after its equals
	ns.d, ns.id = append(ns.d, 0), append(ns.id, 0)
	copy(ns.d[j+1:], ns.d[j:])
	copy(ns.id[j+1:], ns.id[j:])
	ns.d[j], ns.id[j] = d, id
	if len(ns.d) > kNearest {
		ns.d, ns.id = ns.d[:kNearest], ns.id[:kNearest]
	}
}

func (ns *nearestSet) answer() answer {
	var a answer
	for i := range ns.d {
		a.add(ns.id[i])
		a.addDist(ns.d[i])
	}
	return a
}

func pointRectDist(x, y float64, it *flatItem) float64 {
	dx, dy := 0.0, 0.0
	switch {
	case x < it.x0:
		dx = it.x0 - x
	case x > it.x1:
		dx = x - it.x1
	}
	switch {
	case y < it.y0:
		dy = it.y0 - y
	case y > it.y1:
		dy = y - it.y1
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// fillOracle computes the wanted answer of every marked read op by
// linear scan — closed-box intersection for points and windows, the k
// smallest point-to-rectangle distances for nearest — for all of them at
// once: one pass over the items with the few hundred marked ops held in
// cache, instead of one 48 MB pass per op (the tests hold it to the plain
// one-op-at-a-time scan). Windows are sorted by their left edge, so the
// ones an item can reach in x are a short run found by binary search;
// narrow and wide windows are kept apart so that the wide few do not
// lengthen the run of the narrow many. A nearest op skips items further
// away in x alone than its current k-th best.
func (t *tape) fillOracle(items []flatItem) {
	type marked struct {
		o    *op
		at   int32
		slot int32
	}
	type windowSet struct {
		ws     []marked
		widest float64
	}
	const narrow = 0.02
	var sets [2]windowSet
	var nearest []marked
	for i, c := range t.check {
		if c < 0 {
			continue
		}
		m := marked{&t.ops[i], int32(i), c}
		t.want[c] = answer{}
		if m.o.kind == opNearest {
			nearest = append(nearest, m)
			continue
		}
		set := &sets[0]
		if m.o.x1-m.o.x0 > narrow {
			set = &sets[1]
		}
		set.ws = append(set.ws, m)
		set.widest = math.Max(set.widest, m.o.x1-m.o.x0)
	}
	for _, set := range sets {
		sort.Slice(set.ws, func(i, j int) bool { return set.ws[i].o.x0 < set.ws[j].o.x0 })
	}
	best := make([]nearestSet, len(nearest))
	for i := range items {
		it := &items[i]
		for _, set := range sets {
			// A window reaching the item in x starts no further left than
			// widest before it and no further right than its right edge.
			from := it.x0 - set.widest
			lo := sort.Search(len(set.ws), func(j int) bool { return set.ws[j].o.x0 >= from })
			for _, m := range set.ws[lo:] {
				if m.o.x0 > it.x1 {
					break
				}
				if it.liveAt(m.at) && it.x0 <= m.o.x1 && it.y0 <= m.o.y1 && m.o.y0 <= it.y1 {
					t.want[m.slot].add(it.id)
				}
			}
		}
		for j, m := range nearest {
			if ns := &best[j]; len(ns.d) == kNearest {
				if kth := ns.d[kNearest-1]; it.x0-m.o.x0 > kth || m.o.x0-it.x1 > kth {
					continue
				}
			}
			if it.liveAt(m.at) {
				best[j].offer(pointRectDist(m.o.x0, m.o.y0, it), it.id)
			}
		}
	}
	for _, set := range sets {
		for _, m := range set.ws {
			if m.o.kind == opCount {
				t.want[m.slot].h = 0 // Count returns no ids to digest
			}
		}
	}
	for j, m := range nearest {
		t.want[m.slot] = best[j].answer()
	}
}

// genMutateTape builds the write-beside-read tape against a model of the
// live item set, which starts as `base`: a quarter inserts of fresh
// rectangles (drawn by the data set's own recipe, ids continuing after
// the base's), a quarter deletes of a uniformly chosen live item (so the
// tree's size stays put and every delete must report found), half reads.
// Marked reads get the answer of a linear scan over the model as it
// stands at that point of the tape (every model item records when it was
// inserted and deleted). It returns the model's live count after each
// slice, for the Len checks.
func genMutateTape(seed int64, base []node.Entry, slices, sliceOps, samples int) (*tape, []int) {
	rng := rand.New(rand.NewSource(seed ^ 0x3c6ef))
	model := flatten(base)
	live := make([]int32, len(model))
	for i := range live {
		live[i] = int32(i)
	}
	avgArea := 1.0 / float64(len(base)) // density 1.0, as the base data
	nextID := uint64(len(base))
	readMix := []mixEntry{{opPoint, 1, 0}, {opSearch, 1, 0.01}}

	t := &tape{}
	for s := 0; s < slices; s++ {
		kinds := make([]opKind, sliceOps)
		for i := range kinds {
			switch {
			case i < sliceOps/4:
				kinds[i] = opInsert
			case i < sliceOps/2:
				kinds[i] = opDelete
			default:
				kinds[i] = opPoint // a read; its kind is drawn below
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			t.ops = append(t.ops, op{kind: k})
		}
	}
	t.markSamplesWhere(samples, func(o *op) bool { return o.kind == opPoint })

	lens := make([]int, 0, slices)
	for i := range t.ops {
		o := &t.ops[i]
		switch o.kind {
		case opInsert:
			x, y := rng.Float64(), rng.Float64()
			side := math.Sqrt(rng.Float64() * 2 * avgArea)
			*o = op{kind: opInsert, x0: x, y0: y, x1: math.Min(x+side, 1), y1: math.Min(y+side, 1), id: nextID}
			live = append(live, int32(len(model)))
			model = append(model, flatItem{o.x0, o.y0, o.x1, o.y1, nextID, int32(i), neverDied})
			nextID++
		case opDelete:
			j := rng.Intn(len(live))
			v := &model[live[j]]
			*o = op{kind: opDelete, x0: v.x0, y0: v.y0, x1: v.x1, y1: v.y1, id: v.id}
			v.died = int32(i)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			m := readMix[rng.Intn(len(readMix))]
			*o = genRead(rng, m.kind, m.extent)
		}
		if (i+1)%sliceOps == 0 {
			lens = append(lens, len(live))
		}
	}
	t.fillOracle(model)
	return t, lens
}

// markSamplesWhere is markSamples restricted to ops satisfying ok.
func (t *tape) markSamplesWhere(n int, ok func(*op) bool) {
	t.check = make([]int32, len(t.ops))
	for i := range t.check {
		t.check[i] = -1
	}
	var cands []int
	for i := range t.ops {
		if ok(&t.ops[i]) {
			cands = append(cands, i)
		}
	}
	if n > len(cands) {
		n = len(cands)
	}
	for k := 0; k < n; k++ {
		i := cands[k*len(cands)/n]
		t.check[i] = int32(len(t.want))
		t.want = append(t.want, answer{})
	}
}

// serveMix is the request mix of the serve workload. Nearest fans out to
// every shard; the other kinds reach only the shards their geometry
// overlaps.
var serveMix = []mixEntry{
	{opSearch, 30, 0.01},
	{opCount, 28, 0.03},
	{opPoint, 25, 0},
	{opNearest, 15, 0},
	// Batches cost five times any other request. At 2 % of the mix the
	// 99th percentile is their median — the middle of a cluster, which
	// repeats — where at 5 % it would be the cluster's own tail.
	{opBatch, 2, 0.01},
}

// batchWindows is the number of windows in one batch request.
const batchWindows = 16

// genServeTape builds the request tape; one request in `every` is marked
// for checking against the unsharded reference.
func genServeTape(seed int64, ops, every int) *tape {
	rng := rand.New(rand.NewSource(seed ^ 0x5e47e))
	t := &tape{ops: genMixed(rng, ops, serveMix)}
	for i := range t.ops {
		if t.ops[i].kind != opBatch {
			continue
		}
		ws := make([]op, batchWindows)
		for j := range ws {
			ws[j] = genRead(rng, opSearch, 0.01)
		}
		t.ops[i].id = uint64(len(t.batches))
		t.batches = append(t.batches, ws)
	}
	t.markSamples(len(t.ops)/every, len(t.ops))
	return t
}
