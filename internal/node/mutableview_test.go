package node

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"strtree/internal/geom"
)

// randRect builds a valid random rectangle in k dims.
func randRect(rng *rand.Rand, dims int) geom.Rect {
	r := geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
	for d := 0; d < dims; d++ {
		a, b := rng.Float64()*100, rng.Float64()*100
		if a > b {
			a, b = b, a
		}
		r.Min[d], r.Max[d] = a, b
	}
	return r
}

// TestMutableViewByteIdentity drives a MutableView and a materialized Node
// through the same random operation sequence and asserts the patched page is
// byte-for-byte what Marshal produces from the Node at every step. This is
// the contract the invariant verifier's page round trip relies on.
func TestMutableViewByteIdentity(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 5} {
		for _, pageSize := range []int{256, 1024, 4096} {
			rng := rand.New(rand.NewSource(int64(dims*1000 + pageSize)))
			page := make([]byte, pageSize)
			shadow := make([]byte, pageSize)
			n := Node{Level: 0, Dims: dims}
			if err := Marshal(&n, page); err != nil {
				t.Fatalf("dims=%d page=%d: marshal empty: %v", dims, pageSize, err)
			}
			mv, err := MakeMutableView(page)
			if err != nil {
				t.Fatalf("dims=%d page=%d: MakeMutableView: %v", dims, pageSize, err)
			}
			slotCap := mv.SlotCapacity()
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(3); {
				case op == 0 && len(n.Entries) < slotCap: // append
					r, ref := randRect(rng, dims), rng.Uint64()
					if err := mv.AppendEntry(r, ref); err != nil {
						t.Fatalf("step %d: AppendEntry: %v", step, err)
					}
					n.Entries = append(n.Entries, Entry{Rect: r.Clone(), Ref: ref})
				case op == 1 && len(n.Entries) > 0: // patch a rect
					i, r := rng.Intn(len(n.Entries)), randRect(rng, dims)
					if err := mv.SetEntryRect(i, r); err != nil {
						t.Fatalf("step %d: SetEntryRect: %v", step, err)
					}
					n.Entries[i].Rect = r.Clone()
				case op == 2 && len(n.Entries) > 0: // remove
					i := rng.Intn(len(n.Entries))
					if err := mv.RemoveEntry(i); err != nil {
						t.Fatalf("step %d: RemoveEntry: %v", step, err)
					}
					n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
				default:
					continue
				}
				if err := Marshal(&n, shadow); err != nil {
					t.Fatalf("step %d: shadow marshal: %v", step, err)
				}
				if !bytes.Equal(page, shadow) {
					t.Fatalf("dims=%d page=%d step=%d: patched page diverges from Marshal output", dims, pageSize, step)
				}
				// The patched page must stay acceptable to every decoder.
				var back Node
				if err := Unmarshal(page, &back); err != nil {
					t.Fatalf("step %d: Unmarshal of patched page: %v", step, err)
				}
				if _, err := MakeView(page); err != nil {
					t.Fatalf("step %d: MakeView of patched page: %v", step, err)
				}
			}
		}
	}
}

// TestMutableViewAppendCRCIncremental pins that the incremental CRC after an
// append equals a from-scratch checksum (the property crc32.Update provides;
// this test keeps it from regressing to a stale-CRC bug).
func TestMutableViewAppendCRCIncremental(t *testing.T) {
	page := make([]byte, 512)
	n := Node{Level: 3, Dims: 2}
	if err := Marshal(&n, page); err != nil {
		t.Fatal(err)
	}
	mv, err := MakeMutableView(page)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < mv.SlotCapacity(); i++ {
		if err := mv.AppendEntry(randRect(rng, 2), rng.Uint64()); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		// Unmarshal recomputes and verifies the CRC from scratch.
		var back Node
		if err := Unmarshal(page, &back); err != nil {
			t.Fatalf("append %d left a bad checksum: %v", i, err)
		}
		if back.Level != 3 || len(back.Entries) != i+1 {
			t.Fatalf("append %d: decoded level=%d count=%d", i, back.Level, len(back.Entries))
		}
	}
	if err := mv.AppendEntry(randRect(rng, 2), 1); err == nil {
		t.Fatal("append past SlotCapacity succeeded")
	}
}

// TestMutableViewRejects exercises the mutator error gates.
func TestMutableViewRejects(t *testing.T) {
	page := make([]byte, 256)
	n := Node{Level: 0, Dims: 2, Entries: []Entry{
		{Rect: geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{1, 1}}, Ref: 7},
	}}
	if err := Marshal(&n, page); err != nil {
		t.Fatal(err)
	}
	mv, err := MakeMutableView(page)
	if err != nil {
		t.Fatal(err)
	}
	bad3d := geom.Rect{Min: geom.Point{0, 0, 0}, Max: geom.Point{1, 1, 1}}
	nan := geom.Rect{Min: geom.Point{math.NaN(), 0}, Max: geom.Point{1, 1}}
	if err := mv.AppendEntry(bad3d, 1); err == nil {
		t.Error("AppendEntry accepted wrong dimensionality")
	}
	if err := mv.AppendEntry(nan, 1); err == nil {
		t.Error("AppendEntry accepted a NaN rectangle")
	}
	if err := mv.SetEntryRect(5, n.Entries[0].Rect); err == nil {
		t.Error("SetEntryRect accepted an out-of-range index")
	}
	if err := mv.SetEntryRect(0, nan); err == nil {
		t.Error("SetEntryRect accepted a NaN rectangle")
	}
	if err := mv.RemoveEntry(1); err == nil {
		t.Error("RemoveEntry accepted an out-of-range index")
	}
	if err := mv.RemoveEntry(-1); err == nil {
		t.Error("RemoveEntry accepted a negative index")
	}
	// None of the rejected calls may have corrupted the page.
	var back Node
	if err := Unmarshal(page, &back); err != nil {
		t.Fatalf("page corrupted by rejected mutations: %v", err)
	}
	if len(back.Entries) != 1 || back.Entries[0].Ref != 7 {
		t.Fatalf("page content changed by rejected mutations: %+v", back)
	}
	// MakeMutableView must reject what MakeView rejects.
	if _, err := MakeMutableView(page[:4]); err == nil {
		t.Error("MakeMutableView accepted a truncated page")
	}
	page[0] ^= 0xFF
	if _, err := MakeMutableView(page); err == nil {
		t.Error("MakeMutableView accepted a bad magic")
	}
	page[0] ^= 0xFF
}
