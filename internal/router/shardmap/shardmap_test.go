package shardmap

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// threeSlabMap is a hand-built map of three x-slabs over the unit
// square: [0,0.3], [0.3,0.6], [0.7,1.0] — slabs 1 and 2 share an edge
// with slab 0 and 1 respectively is deliberately broken: there is a gap
// (0.6,0.7) covered by no shard, and slabs 0/1 touch at x=0.3.
func threeSlabMap() *Map {
	return &Map{
		Version: FormatVersion,
		Dims:    2,
		Shards: []Shard{
			{ID: 0, MBR: RectJSON{Min: []float64{0, 0}, Max: []float64{0.3, 1}}},
			{ID: 1, MBR: RectJSON{Min: []float64{0.3, 0}, Max: []float64{0.6, 1}}},
			{ID: 2, MBR: RectJSON{Min: []float64{0.7, 0}, Max: []float64{1, 1}}},
		},
	}
}

// TestOverlapRectGeometry is the pruning-geometry table: touching edges,
// containment, empty overlap, gap queries, full-extent queries.
func TestOverlapRectGeometry(t *testing.T) {
	m := threeSlabMap()
	cases := []struct {
		name string
		q    geom.Rect
		want []int
	}{
		{"inside one shard", geom.R2(0.1, 0.1, 0.2, 0.2), []int{0}},
		{"spans two shards", geom.R2(0.2, 0.4, 0.4, 0.6), []int{0, 1}},
		{"covers everything", geom.R2(0, 0, 1, 1), []int{0, 1, 2}},
		{"contains a whole shard", geom.R2(0.25, -1, 0.65, 2), []int{0, 1}},
		{"contained in a shard", geom.R2(0.45, 0.45, 0.45, 0.45), []int{1}},
		{"touching edge intersects", geom.R2(0.6, 0, 0.65, 1), []int{1}}, // closed-box: x=0.6 touches shard 1
		{"shared boundary hits both", geom.R2(0.3, 0.5, 0.3, 0.5), []int{0, 1}},
		{"in the gap", geom.R2(0.62, 0.1, 0.68, 0.9), nil},
		{"outside the extent", geom.R2(1.5, 1.5, 2, 2), nil},
		{"corner touch", geom.R2(0.7, 1, 0.7, 1), []int{2}},
	}
	for _, tc := range cases {
		got := m.OverlapRect(tc.q)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: OverlapRect(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestOverlapPointGeometry(t *testing.T) {
	m := threeSlabMap()
	cases := []struct {
		name string
		p    geom.Point
		want []int
	}{
		{"interior", geom.Pt2(0.15, 0.5), []int{0}},
		{"on a shared boundary", geom.Pt2(0.3, 0.5), []int{0, 1}},
		{"on an outer edge", geom.Pt2(1, 0.5), []int{2}},
		{"in the gap", geom.Pt2(0.65, 0.5), nil},
		{"outside", geom.Pt2(-0.1, 0.5), nil},
	}
	for _, tc := range cases {
		got := m.OverlapPoint(tc.p)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: OverlapPoint(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestAll(t *testing.T) {
	if got := threeSlabMap().All(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("All() = %v", got)
	}
}

func randomEntries(n int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]node.Entry, n)
	for i := range entries {
		x, y := rng.Float64(), rng.Float64()
		entries[i] = node.Entry{
			Rect: geom.Rect{Min: geom.Pt2(x, y), Max: geom.Pt2(x+0.005, y+0.005)},
			Ref:  uint64(i),
		}
	}
	return entries
}

func TestPartitionCoversAndBounds(t *testing.T) {
	entries := randomEntries(10000, 3)
	m, parts, err := Partition(entries, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 || len(m.Shards) != 4 {
		t.Fatalf("parts = %d, shards = %d, want 4", len(parts), len(m.Shards))
	}
	total := 0
	for i, part := range parts {
		total += len(part)
		if m.Shards[i].Count != len(part) {
			t.Errorf("shard %d count %d, part has %d", i, m.Shards[i].Count, len(part))
		}
		mbr := m.Shards[i].MBR.Rect()
		for _, e := range part {
			if !mbr.Contains(e.Rect) {
				t.Fatalf("shard %d MBR %v does not contain member %v", i, mbr, e.Rect)
			}
		}
	}
	if total != 10000 {
		t.Fatalf("parts cover %d entries, want 10000", total)
	}
	// Every entry must land in the shard the pruning would route a point
	// query for its center to.
	for i, part := range parts {
		for _, e := range part[:10] { // spot-check, full loop is O(n*shards)
			ids := m.OverlapRect(e.Rect)
			found := false
			for _, id := range ids {
				if id == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("entry %d in shard %d, but OverlapRect(%v) = %v", e.Ref, i, e.Rect, ids)
			}
		}
	}
}

// TestPartitionWorkersIdentical holds the partition to one answer at every
// worker count, 0 (GOMAXPROCS) included: the same map and the same parts,
// entry for entry. 40 000 entries take the parallel split of the sort.
func TestPartitionWorkersIdentical(t *testing.T) {
	var (
		want      *Map
		wantParts [][]node.Entry
	)
	for _, workers := range []int{1, 0, 4} {
		m, parts, err := Partition(randomEntries(40000, 5), 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantParts = m, parts
			continue
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("workers=%d: map differs from workers=1", workers)
		}
		if !reflect.DeepEqual(parts, wantParts) {
			t.Fatalf("workers=%d: parts differ from workers=1", workers)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, _, err := Partition(nil, 3, 1); err == nil {
		t.Error("empty partition accepted")
	}
	if _, _, err := Partition(randomEntries(10, 1), 0, 1); err == nil {
		t.Error("zero shards accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := randomEntries(500, 9)
	m, _, err := Partition(entries, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		m.Shards[i].Index = filepath.Base(dir) + ".str" // any relative name
		m.Shards[i].Addrs = []string{"127.0.0.1:7070"}
	}
	path := filepath.Join(dir, "shards.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
	if p := got.IndexPath(path, 0); p != filepath.Join(dir, got.Shards[0].Index) {
		t.Fatalf("IndexPath = %q", p)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Map)
	}{
		{"no shards", func(m *Map) { m.Shards = nil }},
		{"future version", func(m *Map) { m.Version = FormatVersion + 1 }},
		{"bad dims", func(m *Map) { m.Dims = 0 }},
		{"id out of order", func(m *Map) { m.Shards[0].ID = 2 }},
		{"inverted mbr", func(m *Map) { m.Shards[1].MBR = RectJSON{Min: []float64{1, 1}, Max: []float64{0, 0}} }},
		{"dims mismatch", func(m *Map) { m.Shards[2].MBR = RectJSON{Min: []float64{0}, Max: []float64{1}} }},
	}
	for _, tc := range cases {
		m := threeSlabMap()
		tc.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
}
