package router

import (
	"reflect"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

func nb(id uint64, dist float64) wire.Neighbor {
	return wire.Neighbor{Item: wire.Item{ID: id}, Dist: dist}
}

// TestMergeNeighbors is the kNN k-way merge table: ties on distance must
// break by ID, and k may be smaller or larger than any per-shard list.
func TestMergeNeighbors(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]wire.Neighbor
		k     int
		want  []wire.Neighbor
	}{
		{
			name:  "disjoint distances interleave",
			lists: [][]wire.Neighbor{{nb(1, 0.1), nb(3, 0.5)}, {nb(2, 0.3), nb(4, 0.7)}},
			k:     4,
			want:  []wire.Neighbor{nb(1, 0.1), nb(2, 0.3), nb(3, 0.5), nb(4, 0.7)},
		},
		{
			name:  "tie on distance breaks by ID across shards",
			lists: [][]wire.Neighbor{{nb(9, 0.2)}, {nb(3, 0.2)}, {nb(7, 0.2)}},
			k:     3,
			want:  []wire.Neighbor{nb(3, 0.2), nb(7, 0.2), nb(9, 0.2)},
		},
		{
			name:  "tie on distance breaks by ID within one shard",
			lists: [][]wire.Neighbor{{nb(8, 0.4), nb(2, 0.4), nb(5, 0.4)}},
			k:     3,
			want:  []wire.Neighbor{nb(2, 0.4), nb(5, 0.4), nb(8, 0.4)},
		},
		{
			name:  "k smaller than per-shard results truncates globally",
			lists: [][]wire.Neighbor{{nb(1, 0.1), nb(4, 0.4), nb(5, 0.5)}, {nb(2, 0.2), nb(3, 0.3), nb(6, 0.6)}},
			k:     2,
			want:  []wire.Neighbor{nb(1, 0.1), nb(2, 0.2)},
		},
		{
			name:  "k larger than total yields everything",
			lists: [][]wire.Neighbor{{nb(1, 0.1)}, {nb(2, 0.2)}},
			k:     10,
			want:  []wire.Neighbor{nb(1, 0.1), nb(2, 0.2)},
		},
		{
			name:  "empty shard lists are skipped",
			lists: [][]wire.Neighbor{nil, {nb(2, 0.2)}, {}},
			k:     3,
			want:  []wire.Neighbor{nb(2, 0.2)},
		},
		{
			name:  "all empty",
			lists: [][]wire.Neighbor{nil, nil},
			k:     3,
			want:  []wire.Neighbor{},
		},
		{
			name: "mixed ties and distinct distances",
			lists: [][]wire.Neighbor{
				{nb(10, 0.1), nb(11, 0.3)},
				{nb(2, 0.3), nb(12, 0.9)},
				{nb(1, 0.3)},
			},
			k:    4,
			want: []wire.Neighbor{nb(10, 0.1), nb(1, 0.3), nb(2, 0.3), nb(11, 0.3)},
		},
	}
	for _, tc := range cases {
		got := mergeNeighbors(tc.lists, tc.k)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMergeNeighborsSortsUnsortedInput verifies the defensive re-sort: a
// backend list arriving out of merge order still merges correctly.
func TestMergeNeighborsSortsUnsortedInput(t *testing.T) {
	lists := [][]wire.Neighbor{{nb(5, 0.5), nb(1, 0.1)}}
	want := []wire.Neighbor{nb(1, 0.1), nb(5, 0.5)}
	if got := mergeNeighbors(lists, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMergeResponsesErrorWins(t *testing.T) {
	req := &wire.Request{Op: wire.OpCount}
	results := []*wire.Response{
		{Status: wire.StatusOK, Op: wire.OpCount, Count: 3},
		{Status: wire.StatusUnavailable, Op: wire.OpCount, Err: "shard 1: no healthy replica"},
		{Status: wire.StatusDeadline, Op: wire.OpCount},
	}
	got := mergeResponses(req, results, 0)
	if got.Status != wire.StatusUnavailable {
		t.Fatalf("status = %v, want the first non-OK in shard order (unavailable)", got.Status)
	}
}

func TestMergeResponsesConcatAndSum(t *testing.T) {
	req := &wire.Request{Op: wire.OpSearch}
	results := []*wire.Response{
		{Status: wire.StatusOK, Op: wire.OpSearch, Items: []wire.Item{{ID: 5}, {ID: 1}}},
		{Status: wire.StatusOK, Op: wire.OpSearch, Items: []wire.Item{{ID: 9}}},
	}
	got := mergeResponses(req, results, 0)
	want := []uint64{5, 1, 9} // shard-manifest order, within-shard order preserved
	if len(got.Items) != len(want) {
		t.Fatalf("items = %v", got.Items)
	}
	for i, id := range want {
		if got.Items[i].ID != id {
			t.Fatalf("items[%d].ID = %d, want %d (concatenation must follow shard order)", i, got.Items[i].ID, id)
		}
	}

	creq := &wire.Request{Op: wire.OpCount}
	cres := []*wire.Response{
		{Status: wire.StatusOK, Op: wire.OpCount, Count: 2},
		{Status: wire.StatusOK, Op: wire.OpCount, Count: 40},
	}
	if got := mergeResponses(creq, cres, 0); got.Count != 42 {
		t.Fatalf("count = %d, want 42", got.Count)
	}
}

func TestMergeResponsesBatch(t *testing.T) {
	req := &wire.Request{Op: wire.OpBatch, Batch: make([]geom.Rect, 2)}
	results := []*wire.Response{
		{Status: wire.StatusOK, Op: wire.OpBatch, Batch: [][]wire.Item{{{ID: 1}}, nil}},
		{Status: wire.StatusOK, Op: wire.OpBatch, Batch: [][]wire.Item{{{ID: 2}}, {{ID: 3}}}},
	}
	got := mergeResponses(req, results, 0)
	if len(got.Batch) != 2 {
		t.Fatalf("batch len = %d", len(got.Batch))
	}
	if len(got.Batch[0]) != 2 || got.Batch[0][0].ID != 1 || got.Batch[0][1].ID != 2 {
		t.Fatalf("batch[0] = %v, want shard-order concat [1 2]", got.Batch[0])
	}
	if len(got.Batch[1]) != 1 || got.Batch[1][0].ID != 3 {
		t.Fatalf("batch[1] = %v, want [3]", got.Batch[1])
	}
}

func TestMergeStats(t *testing.T) {
	a := wire.Stats{Accepted: 2, Completed: 2, LogicalReads: 10,
		Latency: wire.Summary{Count: 2, Mean: 100, P99: 200, Max: 300}}
	b := wire.Stats{Accepted: 4, Completed: 3, LogicalReads: 5, Draining: true,
		Latency: wire.Summary{Count: 6, Mean: 200, P99: 500, Max: 250}}
	got := mergeStats([]wire.Stats{a, b})
	if got.Accepted != 6 || got.Completed != 5 || got.LogicalReads != 15 || !got.Draining {
		t.Fatalf("counter fold wrong: %+v", got)
	}
	if got.Latency.Count != 8 {
		t.Fatalf("latency count = %d, want 8", got.Latency.Count)
	}
	if got.Latency.Mean != 175 { // (2*100 + 6*200) / 8
		t.Fatalf("weighted mean = %d, want 175", got.Latency.Mean)
	}
	if got.Latency.P99 != 500 || got.Latency.Max != 300 {
		t.Fatalf("tail fold wrong: %+v", got.Latency)
	}
}

// TestMergeSummaryUpperBoundFold pins the quantile fold semantics the
// admin surface advertises ("percentiles":"upper-bound" on /stats):
// every folded quantile is the max across inputs — never an average,
// never a count-weighted blend — while Count sums, Mean is
// count-weighted, and Max is the true maximum. If the fold ever changes,
// this test and the /stats wrapper must change together.
func TestMergeSummaryUpperBoundFold(t *testing.T) {
	a := wire.Summary{Count: 10, Mean: 100, P50: 90, P95: 400, P99: 900, Max: 1000}
	b := wire.Summary{Count: 30, Mean: 20, P50: 110, P95: 300, P99: 950, Max: 980}
	got := mergeSummary(a, b)
	if got.Count != 40 {
		t.Fatalf("Count = %d, want 40", got.Count)
	}
	if got.Mean != 40 { // (10*100 + 30*20) / 40
		t.Fatalf("Mean = %d, want count-weighted 40", got.Mean)
	}
	// Each quantile takes the larger input independently: P50 from b,
	// P95 from a, P99 from b. The result over-reports whenever the true
	// combined quantile sits below the larger shard's — the conservative
	// direction for an operator watching tails.
	if got.P50 != 110 || got.P95 != 400 || got.P99 != 950 {
		t.Fatalf("quantile fold = {P50:%d P95:%d P99:%d}, want upper bounds {110 400 950}", got.P50, got.P95, got.P99)
	}
	if got.Max != 1000 {
		t.Fatalf("Max = %d, want true maximum 1000", got.Max)
	}

	// A zero-count digest is the fold's identity in either position: the
	// other digest passes through untouched, quantiles included.
	if got := mergeSummary(wire.Summary{}, a); got != a {
		t.Fatalf("identity fold (left) = %+v, want %+v", got, a)
	}
	if got := mergeSummary(a, wire.Summary{}); got != a {
		t.Fatalf("identity fold (right) = %+v, want %+v", got, a)
	}
}

// TestMergeResponsesOneShard: a request that reached one shard is
// answered with that shard's parsed response itself, for every op but
// nearest, whose list the merge orders by (distance, ID) and cuts at k.
// Passing it through allocates nothing.
func TestMergeResponsesOneShard(t *testing.T) {
	for _, r := range []*wire.Response{
		{Status: wire.StatusOK, Op: wire.OpSearch, Items: []wire.Item{{ID: 5}, {ID: 1}}},
		{Status: wire.StatusOK, Op: wire.OpSearchPoint, Items: []wire.Item{{ID: 2}}},
		{Status: wire.StatusOK, Op: wire.OpCount, Count: 3},
		{Status: wire.StatusOK, Op: wire.OpBatch, Batch: [][]wire.Item{{{ID: 1}}, nil}},
	} {
		req := &wire.Request{Op: r.Op, Batch: make([]geom.Rect, len(r.Batch))}
		results := []*wire.Response{r}
		if got := mergeResponses(req, results, 0); got != r {
			t.Errorf("%v: one shard's response was not passed through", r.Op)
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(100, func() { mergeResponses(req, results, 0) }); allocs != 0 {
				t.Errorf("%v: passing one shard's response through = %v allocs, want 0", r.Op, allocs)
			}
		}
	}
	nearest := &wire.Response{Status: wire.StatusOK, Op: wire.OpNearest, Neighbors: []wire.Neighbor{nb(9, 0.2), nb(3, 0.2), nb(1, 0.5)}}
	got := mergeResponses(&wire.Request{Op: wire.OpNearest, K: 2}, []*wire.Response{nearest}, 2)
	if want := []wire.Neighbor{nb(3, 0.2), nb(9, 0.2)}; !reflect.DeepEqual(got.Neighbors, want) {
		t.Fatalf("one shard's nearest = %v, want %v", got.Neighbors, want)
	}
}
