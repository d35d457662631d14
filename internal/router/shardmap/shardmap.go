// Package shardmap defines the spatial shard map behind the fan-out
// router: the assignment of dataset regions to backend index files and
// server addresses. It is the STR paper's core idea lifted one level —
// instead of slicing a page's worth of rectangles into tiles, the whole
// dataset is sliced into STR tiles of shard size, so each shard covers a
// tight, near-disjoint region and a window query only has to visit the
// shards whose MBRs it overlaps.
//
// The map travels as a JSON manifest (`shards.json`, written by
// `strload build -shards N`) listing each shard's MBR, item count, index
// file and replica addresses. The router loads it to prune fan-out; a
// backend loads it (strserve -map/-shard) to find its index file.
package shardmap

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/pack"
)

// FormatVersion is the manifest format's version field; readers reject
// manifests from a future format.
const FormatVersion = 1

// RectJSON is a rectangle's manifest shape: min and max corners as
// coordinate arrays.
type RectJSON struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

// Rect converts to a geometry rectangle.
func (r RectJSON) Rect() geom.Rect {
	return geom.Rect{Min: geom.Point(r.Min), Max: geom.Point(r.Max)}
}

// Shard is one spatial shard: a region of the dataset, its index file,
// and the servers holding it.
type Shard struct {
	// ID is the shard's position in the manifest; merges concatenate in
	// ID order so router output is deterministic.
	ID int `json:"id"`
	// MBR bounds every item in the shard. Queries not intersecting it
	// cannot match the shard's items and skip its backends entirely.
	MBR RectJSON `json:"mbr"`
	// Count is the shard's item count at build time (informational).
	Count int `json:"count"`
	// Index is the shard's index file, relative to the manifest.
	Index string `json:"index,omitempty"`
	// Addrs lists the servers holding this shard, first preferred; more
	// than one means replicas, which the router uses for retry-on-failure.
	Addrs []string `json:"addrs,omitempty"`
}

// Map is a complete shard map.
type Map struct {
	Version int     `json:"version"`
	Dims    int     `json:"dims"`
	Shards  []Shard `json:"shards"`
}

// Validate checks structural integrity: at least one shard, IDs equal to
// positions, valid MBRs of the declared dimensionality.
func (m *Map) Validate() error {
	if m.Version > FormatVersion {
		return fmt.Errorf("shardmap: manifest version %d is newer than supported %d", m.Version, FormatVersion)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shardmap: no shards")
	}
	if m.Dims < 1 {
		return fmt.Errorf("shardmap: dims %d", m.Dims)
	}
	for i, s := range m.Shards {
		if s.ID != i {
			return fmt.Errorf("shardmap: shard at position %d has id %d (ids must be 0..%d in order)", i, s.ID, len(m.Shards)-1)
		}
		r := s.MBR.Rect()
		if !r.Valid() || r.Dim() != m.Dims {
			return fmt.Errorf("shardmap: shard %d: invalid %d-d MBR %v", i, m.Dims, r)
		}
	}
	return nil
}

// Load reads and validates a manifest file.
func Load(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shardmap: %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// Save writes the manifest as indented JSON. Output is deterministic:
// field order follows the struct definitions.
func (m *Map) Save(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// IndexPath resolves shard i's index file against the manifest's
// directory, the convention strload writes and strserve reads.
func (m *Map) IndexPath(manifestPath string, i int) string {
	idx := m.Shards[i].Index
	if filepath.IsAbs(idx) {
		return idx
	}
	return filepath.Join(filepath.Dir(manifestPath), idx)
}

// OverlapRect returns the IDs of shards whose MBR intersects q, in
// manifest order — the fan-out set for window and count queries. Closed-
// box semantics: touching edges intersect, matching the query layer.
func (m *Map) OverlapRect(q geom.Rect) []int {
	out := make([]int, 0, len(m.Shards))
	for i, s := range m.Shards {
		if s.MBR.Rect().Intersects(q) {
			out = append(out, i)
		}
	}
	return out
}

// OverlapPoint returns the IDs of shards whose MBR contains p, in
// manifest order — the fan-out set for point queries.
func (m *Map) OverlapPoint(p geom.Point) []int {
	out := make([]int, 0, len(m.Shards))
	for i, s := range m.Shards {
		if s.MBR.Rect().ContainsPoint(p) {
			out = append(out, i)
		}
	}
	return out
}

// All returns every shard ID in manifest order — the broadcast set for
// nearest-neighbor and stats requests, which cannot be pruned by the
// query geometry alone.
func (m *Map) All() []int {
	out := make([]int, len(m.Shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// Partition splits entries into at most `shards` spatial shards using
// STR slab partitioning (pack.STRPartition): entries are reordered in
// place into STR tiling order and cut into contiguous runs of
// ceil(len/shards). It returns the resulting map — MBRs computed from
// the actual members, Index names left for the caller — and the entry
// slice of each shard (sub-slices of the reordered input). The partition
// is deterministic and identical at every worker count (0 = GOMAXPROCS).
func Partition(entries []node.Entry, shards, workers int) (*Map, [][]node.Entry, error) {
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("shardmap: cannot partition an empty dataset")
	}
	if shards < 1 {
		return nil, nil, fmt.Errorf("shardmap: shard count %d", shards)
	}
	dims := entries[0].Rect.Dim()
	bounds := pack.STRPartition(entries, shards, workers)
	m := &Map{Version: FormatVersion, Dims: dims, Shards: make([]Shard, len(bounds))}
	parts := make([][]node.Entry, len(bounds))
	for i, b := range bounds {
		part := entries[b[0]:b[1]]
		parts[i] = part
		mbr := part[0].Rect.Clone()
		for _, e := range part[1:] {
			mbr.UnionInPlace(e.Rect)
		}
		m.Shards[i] = Shard{
			ID:    i,
			MBR:   RectJSON{Min: mbr.Min, Max: mbr.Max},
			Count: len(part),
		}
	}
	return m, parts, nil
}
