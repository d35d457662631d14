package rtree

// FuzzMutateInvariants drives byte-decoded insert/delete sequences against
// the differential oracle and the invariant verifier: whatever op sequence
// the fuzzer invents, the tree must keep every structural invariant after
// every op (including byte-exact page round-trips, which covers the
// MutableView CRC patches) and answer queries exactly like the linear scan.
// The committed corpus under testdata/fuzz seeds the interesting shapes:
// pure insert growth, churn with deletes, duplicate-heavy keys, and
// root-collapse sequences. CI runs a 30s smoke; nightly runs 10 minutes.

import (
	"slices"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// fuzzOps caps the ops decoded from one input so a single case stays fast
// enough for the fuzzer to explore widely.
const fuzzOps = 128

// decodeFuzzRect derives a small valid rectangle from three bytes: the low
// nibbles place the corner on a 16x16 grid (so duplicates and overlaps are
// common), the high bits size it.
func decodeFuzzRect(b0, x, y byte) geom.Rect {
	lox := float64(x % 16)
	loy := float64(y % 16)
	w := 1 + float64(b0>>4)/8
	return geom.Rect{Min: geom.Point{lox, loy}, Max: geom.Point{lox + w, loy + w}}
}

func FuzzMutateInvariants(f *testing.F) {
	// Insert-only growth through several splits.
	grow := make([]byte, 0, 3*40)
	for i := 0; i < 40; i++ {
		grow = append(grow, byte(i*2), byte(i*7), byte(i*13))
	}
	f.Add(grow)
	// Churn: alternating inserts and deletes.
	churn := make([]byte, 0, 3*60)
	for i := 0; i < 60; i++ {
		churn = append(churn, byte(i), byte(i*5), byte(i*11))
	}
	f.Add(churn)
	// Duplicate-heavy: the same cell over and over, then deletes.
	dup := make([]byte, 0, 3*48)
	for i := 0; i < 32; i++ {
		dup = append(dup, 0, 3, 3)
	}
	for i := 0; i < 16; i++ {
		dup = append(dup, byte(2*i+1), 0, 0)
	}
	f.Add(dup)
	// Drain to empty: grow then delete everything (root collapse).
	drain := make([]byte, 0, 3*40)
	for i := 0; i < 20; i++ {
		drain = append(drain, byte(i*2), byte(i*3), byte(i*9))
	}
	for i := 0; i < 20; i++ {
		drain = append(drain, byte(2*i+1), 0, 0)
	}
	f.Add(drain)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := newMutTree(t, mutOracleConfig{
			dims: 2, pageSize: 256, bufPages: 32,
		})
		var o oracle
		nextRef := uint64(1)
		for op := 0; op < fuzzOps && len(data) >= 3; op++ {
			b0, x, y := data[0], data[1], data[2]
			data = data[3:]
			if b0%2 == 0 { // insert
				r := decodeFuzzRect(b0, x, y)
				if err := tr.Insert(r, nextRef); err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				o.insert(r, nextRef)
				nextRef++
			} else { // delete
				if len(o.entries) > 0 {
					idx := (int(b0>>1) + int(x)*31 + int(y)*257) % len(o.entries)
					e := o.entries[idx]
					found, err := tr.Delete(e.rect, e.ref)
					if err != nil {
						t.Fatalf("op %d: delete: %v", op, err)
					}
					if !found {
						t.Fatalf("op %d: delete of live entry ref %d not found", op, e.ref)
					}
					o.delete(e.rect, e.ref)
				} else {
					found, err := tr.Delete(decodeFuzzRect(b0, x, y), nextRef+1<<40)
					if err != nil {
						t.Fatalf("op %d: absent delete: %v", op, err)
					}
					if found {
						t.Fatalf("op %d: delete on empty tree reported found", op)
					}
				}
			}
			if err := tr.Check(CheckConfig{}); err != nil {
				t.Fatalf("op %d: invariants violated: %v", op, err)
			}
			if tr.Len() != len(o.entries) {
				t.Fatalf("op %d: tree holds %d entries, oracle %d", op, tr.Len(), len(o.entries))
			}
		}
		// Final query sweep: a few fixed windows over the grid domain.
		for _, q := range []geom.Rect{
			{Min: geom.Point{0, 0}, Max: geom.Point{17, 17}},
			{Min: geom.Point{2, 2}, Max: geom.Point{6, 6}},
			{Min: geom.Point{10.5, 0.5}, Max: geom.Point{12.5, 15.5}},
		} {
			var got []uint64
			if err := tr.Search(q, func(e node.Entry) bool {
				got = append(got, e.Ref)
				return true
			}); err != nil {
				t.Fatalf("final search: %v", err)
			}
			slices.Sort(got)
			if want := o.searchRefs(q); !slices.Equal(got, want) {
				t.Fatalf("final search disagrees with oracle on %v: tree %d refs, oracle %d", q, len(got), len(want))
			}
		}
	})
}
