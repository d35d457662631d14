package lint

// This file is strlint's repository-specific configuration: the layering
// table the imports check enforces and the packages whose dropped errors
// the droppederr check refuses to tolerate.

// droppedErrTargets are the packages whose error returns must never be
// silently discarded: the storage and buffer layers (a dropped error there
// corrupts a persistent tree), encoding/binary (a short read/write yields
// a garbage page), the query layer (it returns no error today; the entry
// keeps any it gains checked), and the serving layer (a dropped
// drain or shutdown error hides requests that were cut off mid-response).
// Keys are module-relative paths or stdlib paths. The check fires on
// plain, defer and go calls alike, and inside goroutine bodies — including
// a target package's calls to its own functions.
var droppedErrTargets = map[string]bool{
	"internal/storage": true,
	"internal/buffer":  true,
	"internal/query":   true,
	"internal/server":  true,
	"internal/router":  true,
	"internal/extsort": true,
	"internal/pack":    true,
	"encoding/binary":  true,
}

// deterministicLayers are the packages on the bulk-load build path whose
// output must be byte-identical at any worker count (the PR-4 contract):
// the root strtree package (the bulk-load facade), the packing
// pipeline, its sorters and the fan-out loop they share, and the tree
// writer. The maporder and timerand
// checks only fire here: map iteration order, wall-clock time and random
// numbers must never influence what these layers write.
var deterministicLayers = map[string]bool{
	"":                 true, // the root strtree package
	"internal/pack":    true,
	"internal/par":     true,
	"internal/psort":   true,
	"internal/extsort": true,
	"internal/rtree":   true,
	// obs is not on the build path, but its expositions promise scrapers a
	// deterministic series order — the same "no map iteration into output"
	// discipline, so it opts into the maporder/timerand checks.
	"internal/obs": true,
}

// layerAllowed is the architecture of the module as an allowed-imports
// table: for each library package, the set of module-internal packages it
// may import ("" is the root strtree package). Anything else is a layering
// violation. The layering is strictly bottom-up:
//
//	geom, hilbert, storage, svg, histo,
//	par                                (foundations: no internal imports)
//	node, wkt, geojson, server/wire    -> geom
//	obs                                -> histo
//	lint                               -> par
//	query                              -> geom
//	buffer, trace                      -> storage
//	datagen                            -> geom, node
//	psort                              -> geom, node, par
//	extsort                            -> geom, node, psort
//	pack                               -> extsort, geom, hilbert, node, par, psort
//	rtree                              -> buffer, geom, node, par, psort, storage
//	metrics                            -> geom, node, rtree, storage
//	experiments                        -> everything below
//	strtree (root)                     -> the public surface's needs
//	router/shardmap                    -> geom, node, pack
//	server                             -> strtree root, geom, histo, obs, server/wire
//	router                             -> histo, obs, router/shardmap, server, server/wire
//
// internal/server sits ABOVE the root: it serves the public Tree API over
// the network. That is safe (the root never imports it back) and keeps
// the serving layer off the paper-reproduction core's dependency graph.
// internal/router sits beside the root, not above it: it multiplies a
// server across a shard fleet through server's client, frame and wire
// codec, and never touches a tree or a page. router/shardmap, by
// contrast, is a low layer: it only partitions entries with pack's STR
// tiling, so index-building tools can shard without touching the
// serving stack.
//
// Commands (cmd/*) and examples are deliberately unconstrained: they are
// leaves that may wire any layers together.
var layerAllowed = map[string]map[string]bool{
	"internal/geom":    {},
	"internal/hilbert": {},
	"internal/storage": {},
	"internal/svg":     {},
	"internal/histo":   {},
	"internal/par":     {},
	"internal/obs":     {"internal/histo": true},
	"internal/lint":    {"internal/par": true},
	"internal/node":    {"internal/geom": true},
	"internal/query":   {"internal/geom": true},
	"internal/wkt":     {"internal/geom": true},
	"internal/geojson": {"internal/geom": true},
	"internal/buffer":  {"internal/storage": true},
	"internal/trace":   {"internal/storage": true},
	"internal/datagen": {"internal/geom": true, "internal/node": true},
	"internal/extsort": {"internal/geom": true, "internal/node": true, "internal/psort": true},
	"internal/psort":   {"internal/geom": true, "internal/node": true, "internal/par": true},
	"internal/pack": {
		"internal/extsort": true,
		"internal/geom":    true,
		"internal/hilbert": true,
		"internal/node":    true,
		"internal/par":     true,
		"internal/psort":   true,
	},
	"internal/rtree": {
		"internal/buffer":  true,
		"internal/geom":    true,
		"internal/node":    true,
		"internal/par":     true,
		"internal/psort":   true, // Float64Key: the tile cut's sort keys
		"internal/storage": true,
	},
	"internal/metrics": {
		"internal/geom":    true,
		"internal/node":    true,
		"internal/rtree":   true,
		"internal/storage": true,
	},
	"internal/experiments": {
		"internal/buffer":  true,
		"internal/datagen": true,
		"internal/geom":    true,
		"internal/hilbert": true,
		"internal/metrics": true,
		"internal/node":    true,
		"internal/pack":    true,
		"internal/query":   true,
		"internal/rtree":   true,
		"internal/storage": true,
		"internal/trace":   true,
	},
	"internal/server/wire": {"internal/geom": true},
	"internal/router/shardmap": {
		"internal/geom": true,
		"internal/node": true,
		"internal/pack": true,
	},
	"internal/router": {
		"internal/histo":           true,
		"internal/obs":             true,
		"internal/router/shardmap": true,
		"internal/server":          true,
		"internal/server/wire":     true,
	},
	"internal/server": {
		"":                     true, // the root strtree package: the served API
		"internal/geom":        true,
		"internal/histo":       true,
		"internal/obs":         true,
		"internal/server/wire": true,
	},
	"": { // the root strtree package
		"internal/buffer":  true,
		"internal/geom":    true,
		"internal/metrics": true,
		"internal/node":    true,
		"internal/pack":    true,
		"internal/par":     true,
		"internal/rtree":   true,
		"internal/storage": true,
	},
}
