package pack

// This file exports the STR slab partitioning one level above page
// packing: splitting a whole dataset into a small number of spatial
// shards, each destined for its own index file and server process. The
// partition is exactly the paper's Sort-Tile-Recursive tiling with the
// "node capacity" set to the shard size, so shards inherit STR's
// properties — tight, near-disjoint MBRs and balanced counts — which is
// what makes shard-MBR pruning effective in the fan-out router.

import (
	"runtime"

	"strtree/internal/node"
)

// STRPartition reorders entries in place exactly as the STR packing sort
// would for a node capacity of ceil(len(entries)/parts), and returns the
// boundaries of the resulting parts: part i is entries[b[i][0]:b[i][1]].
// Parts are contiguous STR tiles in tiling order, each holding at most
// ceil(len(entries)/parts) entries; at most `parts` parts are returned
// (fewer when len(entries) < parts). The order is identical for every
// workers setting (0 = GOMAXPROCS), the PR-4 determinism contract.
func STRPartition(entries []node.Entry, parts, workers int) [][2]int {
	n := len(entries)
	if n == 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	per := (n + parts - 1) / parts
	STR{Workers: workers}.Order(entries, per, 0)
	bounds := make([][2]int, 0, (n+per-1)/per)
	for start := 0; start < n; start += per {
		end := start + per
		if end > n {
			end = n
		}
		bounds = append(bounds, [2]int{start, end})
	}
	return bounds
}
