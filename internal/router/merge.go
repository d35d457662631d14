package router

// This file merges per-shard responses into one client answer. Every
// merge is deterministic: concatenations follow shard-manifest order,
// the kNN merge orders by (distance, ID), and stats aggregation is a
// field-wise fold in shard order — the same topology always produces
// byte-identical responses for the same data and query.

import (
	"sort"

	"strtree/internal/server/wire"
)

// mergeResponses folds the per-shard responses (aligned with targets,
// which is in shard-manifest order) into the client's response. A shard
// failure wins over data: the first non-OK response in shard order is
// returned as-is, so errors are deterministic too. One shard's answer is
// the client's as it is, with no copy, unless it is a nearest-neighbour
// list, which the merge puts into (distance, ID) order and cuts at k.
// Several shards' lists are concatenated into lists sized once; a batch
// answer has one list per window, which server.Client checked.
func mergeResponses(req *wire.Request, results []*wire.Response, k int) *wire.Response {
	for _, r := range results {
		if r.Status != wire.StatusOK {
			return r
		}
	}
	if len(results) == 1 && req.Op != wire.OpNearest {
		return results[0]
	}
	out := &wire.Response{Status: wire.StatusOK, Op: req.Op}
	switch req.Op {
	case wire.OpSearch, wire.OpSearchPoint:
		out.Items = concat(results, func(r *wire.Response) []wire.Item { return r.Items })
	case wire.OpCount:
		for _, r := range results {
			out.Count += r.Count
		}
	case wire.OpNearest:
		lists := make([][]wire.Neighbor, len(results))
		for i, r := range results {
			lists[i] = r.Neighbors
		}
		out.Neighbors = mergeNeighbors(lists, k)
	case wire.OpBatch:
		out.Batch = make([][]wire.Item, len(req.Batch))
		for i := range out.Batch {
			out.Batch[i] = concat(results, func(r *wire.Response) []wire.Item { return r.Batch[i] })
		}
	case wire.OpStats:
		stats := make([]wire.Stats, len(results))
		for i, r := range results {
			stats[i] = r.Stats
		}
		out.Stats = mergeStats(stats)
	}
	return out
}

// concat joins the list of each result in shard order into one slice,
// allocated once at its final size; no items at all is nil.
func concat(results []*wire.Response, list func(*wire.Response) []wire.Item) []wire.Item {
	n := 0
	for _, r := range results {
		n += len(list(r))
	}
	if n == 0 {
		return nil
	}
	out := make([]wire.Item, 0, n)
	for _, r := range results {
		out = append(out, list(r)...)
	}
	return out
}

// neighborLess is the kNN merge order: distance first, object ID as the
// tie-break, so equal-distance neighbors come out the same way no matter
// which shard held them.
func neighborLess(a, b wire.Neighbor) bool {
	//strlint:ignore floateq every shard computes distances from the same bytes; exact equality is the determinism contract
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Item.ID < b.Item.ID
}

// mergeNeighbors k-way-merges per-shard top-k lists into the global
// top-k by (distance, ID). Each input list is sorted into merge order
// first — backends return distance order, but ties within a shard need
// the ID tie-break too. Fewer than k total neighbors yields them all.
func mergeNeighbors(lists [][]wire.Neighbor, k int) []wire.Neighbor {
	for _, l := range lists {
		sort.Slice(l, func(i, j int) bool { return neighborLess(l[i], l[j]) })
	}
	heads := make([]int, len(lists))
	out := make([]wire.Neighbor, 0, k)
	for len(out) < k {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || neighborLess(l[heads[i]], lists[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// mergeStats folds per-backend stats into a cluster view: counters and
// buffer figures sum, Draining is true if any backend drains, and
// latency digests merge with mergeSummary's semantics.
func mergeStats(stats []wire.Stats) wire.Stats {
	var out wire.Stats
	for _, s := range stats {
		out.InFlight += s.InFlight
		out.Accepted += s.Accepted
		out.Rejected += s.Rejected
		out.TimedOut += s.TimedOut
		out.Failed += s.Failed
		out.Completed += s.Completed
		out.Draining = out.Draining || s.Draining
		out.LogicalReads += s.LogicalReads
		out.DiskReads += s.DiskReads
		out.DiskWrites += s.DiskWrites
		out.Evictions += s.Evictions
		out.Latency = mergeSummary(out.Latency, s.Latency)
		for i := range out.PerOp {
			out.PerOp[i] = mergeSummary(out.PerOp[i], s.PerOp[i])
		}
	}
	return out
}

// mergeSummary combines two latency digests: counts sum, the mean is
// count-weighted, and Max is the true maximum. Quantiles of independent
// digests cannot be combined exactly, so P50/P95/P99 take the larger
// input — an upper bound, which is the conservative direction for an
// operator watching tail latency.
func mergeSummary(a, b wire.Summary) wire.Summary {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := wire.Summary{Count: a.Count + b.Count}
	out.Mean = uint64((float64(a.Mean)*float64(a.Count) + float64(b.Mean)*float64(b.Count)) / float64(out.Count))
	out.P50 = maxU64(a.P50, b.P50)
	out.P95 = maxU64(a.P95, b.P95)
	out.P99 = maxU64(a.P99, b.P99)
	out.Max = maxU64(a.Max, b.Max)
	return out
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
