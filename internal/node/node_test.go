package node

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"strtree/internal/geom"
)

func sampleNode(level, dims, count int, rng *rand.Rand) *Node {
	n := &Node{Level: level, Dims: dims}
	for i := 0; i < count; i++ {
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.Float64()
			hi[d] = lo[d] + rng.Float64()
		}
		n.Entries = append(n.Entries, Entry{
			Rect: geom.Rect{Min: lo, Max: hi},
			Ref:  rng.Uint64(),
		})
	}
	return n
}

func TestCapacity(t *testing.T) {
	// 2-D entries are 40 bytes; a 4 KiB page holds 102 of them, covering
	// the paper's fan-out of 100.
	if got := Capacity(4096, 2); got != 102 {
		t.Fatalf("Capacity(4096, 2) = %d, want 102", got)
	}
	if got := Capacity(4096, 3); got != 72 {
		t.Fatalf("Capacity(4096, 3) = %d, want 72", got)
	}
	if EntrySize(2) != 40 {
		t.Fatalf("EntrySize(2) = %d", EntrySize(2))
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range []int{2, 3, 5} {
		for _, count := range []int{0, 1, Capacity(4096, dims) / 2, Capacity(4096, dims)} {
			n := sampleNode(3, dims, count, rng)
			page := make([]byte, 4096)
			if err := Marshal(n, page); err != nil {
				t.Fatalf("dims=%d count=%d: marshal: %v", dims, count, err)
			}
			var got Node
			if err := Unmarshal(page, &got); err != nil {
				t.Fatalf("dims=%d count=%d: unmarshal: %v", dims, count, err)
			}
			if got.Level != n.Level || got.Dims != n.Dims || len(got.Entries) != len(n.Entries) {
				t.Fatalf("header mismatch: %+v vs %+v", got, n)
			}
			for i := range n.Entries {
				if !got.Entries[i].Rect.Equal(n.Entries[i].Rect) || got.Entries[i].Ref != n.Entries[i].Ref {
					t.Fatalf("entry %d mismatch", i)
				}
			}
		}
	}
}

func TestUnmarshalReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := sampleNode(0, 2, 60, rng)
	page := make([]byte, 4096)
	if err := Marshal(n, page); err != nil {
		t.Fatal(err)
	}
	var reuse Node
	if err := Unmarshal(page, &reuse); err != nil {
		t.Fatal(err)
	}
	first := &reuse.Entries[0]
	// Second unmarshal of a smaller node must reuse the slice.
	n2 := sampleNode(0, 2, 10, rng)
	if err := Marshal(n2, page); err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(page, &reuse); err != nil {
		t.Fatal(err)
	}
	if len(reuse.Entries) != 10 {
		t.Fatalf("len = %d", len(reuse.Entries))
	}
	if &reuse.Entries[0] != first {
		t.Fatal("entry storage was reallocated")
	}
}

func TestMarshalErrors(t *testing.T) {
	page := make([]byte, 4096)
	if err := Marshal(&Node{Level: 0, Dims: 0}, page); err == nil {
		t.Error("zero dims accepted")
	}
	if err := Marshal(&Node{Level: -1, Dims: 2}, page); err == nil {
		t.Error("negative level accepted")
	}
	// Entry dim mismatch.
	n := &Node{Level: 0, Dims: 2, Entries: []Entry{{Rect: geom.UnitCube(3)}}}
	if err := Marshal(n, page); err == nil {
		t.Error("entry dimension mismatch accepted")
	}
	// Page too small.
	big := sampleNode(0, 2, 100, rand.New(rand.NewSource(3)))
	if err := Marshal(big, make([]byte, 256)); err == nil {
		t.Error("overfull page accepted")
	}
}

// TestMarshalFailureLeavesPageUntouched pins Marshal's all-or-nothing
// contract: whatever makes it fail — including a dimension mismatch on the
// last entry, found only after every earlier one checked out — the page
// keeps its previous bytes, still a valid image of the previous node.
func TestMarshalFailureLeavesPageUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	page := make([]byte, 4096)
	if err := Marshal(sampleNode(1, 2, 60, rng), page); err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), page...)

	late := sampleNode(0, 2, 30, rng)
	late.Entries[29].Rect = geom.UnitCube(3)
	short := sampleNode(0, 2, 30, rng)
	short.Entries[7].Rect.Max = short.Entries[7].Rect.Max[:1]
	for name, n := range map[string]*Node{
		"last entry has 3 dims":   late,
		"an entry's Max is short": short,
		"too many entries":        sampleNode(0, 2, 200, rng),
		"level out of range":      {Level: -1, Dims: 2},
		"dims out of range":       {Level: 0, Dims: 256},
	} {
		if err := Marshal(n, page); err == nil {
			t.Errorf("%s: Marshal succeeded", name)
		}
		if !bytes.Equal(page, before) {
			t.Fatalf("%s: failed Marshal changed the page", name)
		}
	}
	if _, err := MakeView(page); err != nil {
		t.Fatalf("page no longer validates: %v", err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := sampleNode(1, 2, 20, rng)
	good := make([]byte, 4096)
	if err := Marshal(n, good); err != nil {
		t.Fatal(err)
	}
	var out Node

	corrupt := func(mutate func(p []byte)) error {
		p := append([]byte(nil), good...)
		mutate(p)
		return Unmarshal(p, &out)
	}

	if err := corrupt(func(p []byte) { p[0] = 0 }); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if err := corrupt(func(p []byte) { p[2] = 9 }); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	if err := corrupt(func(p []byte) { p[100] ^= 0xFF }); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("payload flip: %v", err)
	}
	if err := corrupt(func(p []byte) { p[6] = 0xFF; p[7] = 0xFF }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized count: %v", err)
	}
	if err := Unmarshal(make([]byte, 4), &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short page: %v", err)
	}
}

// MBR returns the minimum bounding rectangle of the node's entries, grown
// by geom.Rect.UnionInPlace from a clone of the first: the reference the
// record kernels' MBRs are held to. It panics on an empty node.
func (n *Node) MBR() geom.Rect {
	if len(n.Entries) == 0 {
		panic("node: MBR of empty node")
	}
	m := n.Entries[0].Rect.Clone()
	for _, e := range n.Entries[1:] {
		m.UnionInPlace(e.Rect)
	}
	return m
}

func TestNodeMBR(t *testing.T) {
	n := &Node{Level: 0, Dims: 2, Entries: []Entry{
		{Rect: geom.R2(0.1, 0.2, 0.3, 0.4)},
		{Rect: geom.R2(0.5, 0.0, 0.9, 0.1)},
	}}
	if got := n.MBR(); !got.Equal(geom.R2(0.1, 0.0, 0.9, 0.4)) {
		t.Fatalf("MBR = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MBR of empty node did not panic")
		}
	}()
	(&Node{Dims: 2}).MBR()
}

func TestMarshalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := sampleNode(2, 2, 30, rng)
	p1 := make([]byte, 4096)
	p2 := make([]byte, 4096)
	for i := range p2 {
		p2[i] = 0xCC // dirty page
	}
	if err := Marshal(n, p1); err != nil {
		t.Fatal(err)
	}
	if err := Marshal(n, p2); err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pages differ at byte %d", i)
		}
	}
}

func TestPropRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(level uint8, seed int64) bool {
		n := sampleNode(int(level), 2, rng.Intn(Capacity(2048, 2)+1), rand.New(rand.NewSource(seed)))
		page := make([]byte, 2048)
		if err := Marshal(n, page); err != nil {
			return false
		}
		var got Node
		if err := Unmarshal(page, &got); err != nil {
			return false
		}
		if got.Level != n.Level || len(got.Entries) != len(n.Entries) {
			return false
		}
		for i := range n.Entries {
			if !got.Entries[i].Rect.Equal(n.Entries[i].Rect) || got.Entries[i].Ref != n.Entries[i].Ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal100(b *testing.B) {
	b.ReportAllocs()
	n := sampleNode(0, 2, 100, rand.New(rand.NewSource(7)))
	page := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Marshal(n, page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal100(b *testing.B) {
	b.ReportAllocs()
	n := sampleNode(0, 2, 100, rand.New(rand.NewSource(8)))
	page := make([]byte, 4096)
	if err := Marshal(n, page); err != nil {
		b.Fatal(err)
	}
	var out Node
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Unmarshal(page, &out); err != nil {
			b.Fatal(err)
		}
	}
}
