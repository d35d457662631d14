package rtree

// A file is outside input: OpenAt must refuse every meta page CreateAt could
// not have written (checkShape, the root and free-list bounds), and must go on
// reading the bytes that once selected a variant since removed.

import (
	"encoding/binary"
	"errors"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/storage"
)

// clonePager copies src page for page, with patch applied to a copy of the
// meta page (page 0) when it is not nil.
func clonePager(t testing.TB, src storage.Pager, patch func(meta []byte)) *storage.MemPager {
	t.Helper()
	dst := storage.NewMemPager(src.PageSize())
	page := make([]byte, src.PageSize())
	for id := 0; id < src.NumPages(); id++ {
		if _, err := dst.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := src.ReadPage(storage.PageID(id), page); err != nil {
			t.Fatal(err)
		}
		if id == 0 && patch != nil {
			patch(page)
		}
		if err := dst.WritePage(storage.PageID(id), page); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestOpenRejectsBadMeta(t *testing.T) {
	packed, _ := packedPager(t, 600, 16)
	empty := storage.NewMemPager(4096)
	tr, err := Create(buffer.NewPool(empty, 8), Config{Dims: 2, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	put16 := func(off int, v uint16) func([]byte) {
		return func(meta []byte) { binary.LittleEndian.PutUint16(meta[off:], v) }
	}
	cases := []struct {
		name  string
		patch func(meta []byte)
	}{
		{"dims 0", func(meta []byte) { meta[5] = 0 }},
		{"dims too many for the page", func(meta []byte) { meta[5] = 255 }},
		{"capacity 0", put16(6, 0)},
		{"capacity 1", put16(6, 1)},
		{"capacity beyond the page", put16(6, 103)},
		{"capacity 65535", put16(6, 65535)},
		{"min fill 0", put16(8, 0)},
		{"min fill above half", put16(8, 9)},
		{"root beyond the file", func(meta []byte) { binary.LittleEndian.PutUint32(meta[12:], 1<<20) }},
		{"free page beyond the file", func(meta []byte) {
			binary.LittleEndian.PutUint16(meta[26:], 1)
			binary.LittleEndian.PutUint32(meta[metaFixed:], 1<<20)
		}},
		{"free list beyond the page", put16(26, 2000)},
		{"version", func(meta []byte) { meta[4] = 9 }},
		{"magic", func(meta []byte) { meta[0] ^= 0xFF }},
	}
	for _, tc := range cases {
		for name, src := range map[string]storage.Pager{"packed": packed, "empty": empty} {
			if name == "empty" && tc.name == "root beyond the file" {
				continue // an empty tree's root is NilPage: no page to bound
			}
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				pager := clonePager(t, src, tc.patch)
				before := pager.Stats()
				_, err := Open(buffer.NewPool(pager, 8))
				if !errors.Is(err, ErrBadMeta) {
					t.Fatalf("Open = %v, want ErrBadMeta", err)
				}
				if after := pager.Stats(); after.Writes != before.Writes || after.Allocs != before.Allocs {
					t.Fatalf("a refused Open wrote: %+v -> %+v", before, after)
				}
			})
		}
	}
	if _, err := Open(buffer.NewPool(clonePager(t, packed, nil), 8)); err != nil {
		t.Fatalf("unpatched copy: %v", err)
	}
}

// TestRetiredMetaBytesStayReadable runs the mutation oracle's mix over files
// whose meta byte 24 holds a value that selected a split since removed — 1,
// Guttman's quadratic split until PR 24, and 2, the R* split until PR 26 — set
// halfway through the tape, across a flush and a reopen. The tile cut runs, and
// byte 25 bit 0 (forced reinsertion) still round-trips.
func TestRetiredMetaBytesStayReadable(t *testing.T) {
	for _, tc := range []struct {
		row      string
		retired  byte
		reinsert bool
	}{
		{"quadratic", 1, false},
		{"rstar", 2, true},
	} {
		c := mutOracleConfig{
			seed: 2601, ops: 1200, dims: 2, pageSize: 256, bufPages: 64,
			row: tc.row, reinsert: tc.reinsert, pInsert: 0.6, queryEvery: 5,
		}
		c.reopen = func(tr *Tree) *Tree {
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			pager := tr.Pool().Pager()
			meta := make([]byte, pager.PageSize())
			if err := pager.ReadPage(0, meta); err != nil {
				t.Fatal(err)
			}
			if meta[24] != 0 {
				t.Fatalf("meta byte 24 written as %d, want 0 (reserved)", meta[24])
			}
			meta[24] = tc.retired
			if err := pager.WritePage(0, meta); err != nil {
				t.Fatal(err)
			}
			re, err := Open(buffer.NewPool(pager, c.bufPages))
			if err != nil {
				t.Fatalf("reopen with meta byte 24 = %d: %v", tc.retired, err)
			}
			if re.forcedReinsert != tc.reinsert || re.Len() != tr.Len() || re.Height() != tr.Height() {
				t.Fatalf("reopened tree: reinsert %v, %d entries, height %d; want %v, %d, %d",
					re.forcedReinsert, re.Len(), re.Height(), tc.reinsert, tr.Len(), tr.Height())
			}
			return re
		}
		t.Run(c.String(), func(t *testing.T) {
			tr := runMutateOracle(t, c)
			if tr.MutateStats().StructuralInserts == 0 {
				t.Fatal("no node overflowed after the reopen")
			}
		})
	}
}

// FuzzOpenMeta puts an arbitrary meta page in front of a valid packed file.
// Open refuses it, or the tree it returns answers Check and Count with a value
// or an error, never a panic — and a tree Check passes takes an Insert (every
// leaf is full, so it splits) and passes Check again.
func FuzzOpenMeta(f *testing.F) {
	src := storage.NewMemPager(256)
	tr, err := Create(buffer.NewPool(src, 16), Config{Dims: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := tr.BulkLoad(randRects(60, 2602), xSortOrderer{}); err != nil {
		f.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		f.Fatal(err)
	}
	meta := make([]byte, src.PageSize())
	if err := src.ReadPage(0, meta); err != nil {
		f.Fatal(err)
	}
	seed := func(patch func(m []byte)) {
		m := append([]byte(nil), meta...)
		patch(m)
		f.Add(m)
	}
	seed(func([]byte) {})
	seed(func(m []byte) { binary.LittleEndian.PutUint16(m[6:], 0) })
	seed(func(m []byte) { binary.LittleEndian.PutUint16(m[6:], 65535) })
	seed(func(m []byte) { binary.LittleEndian.PutUint16(m[6:], 4) }) // below the nodes' fill
	seed(func(m []byte) { m[5] = 0 })
	seed(func(m []byte) { binary.LittleEndian.PutUint32(m[12:], 1<<20) })
	seed(func(m []byte) { binary.LittleEndian.PutUint16(m[10:], 0) }) // height 0 over a root
	seed(func(m []byte) { m[24], m[25] = 2, 1 })
	seed(func(m []byte) { // a free list naming the meta page and a live node
		binary.LittleEndian.PutUint16(m[26:], 2)
		binary.LittleEndian.PutUint32(m[metaFixed+4:], 1)
	})
	f.Add([]byte("STRM"))

	f.Fuzz(func(t *testing.T, data []byte) {
		pager := clonePager(t, src, func(m []byte) {
			clear(m)
			copy(m, data)
		})
		tr, err := Open(buffer.NewPool(pager, 16))
		if err != nil {
			return
		}
		// A meta page may honestly describe an empty tree of another
		// dimensionality: the probes take the tree's.
		box := func(lo, hi float64) geom.Rect {
			r := geom.Rect{Min: make(geom.Point, tr.Dims()), Max: make(geom.Point, tr.Dims())}
			for d := range r.Min {
				r.Min[d], r.Max[d] = lo, hi
			}
			return r
		}
		if _, err := tr.Count(box(0, 1)); err != nil {
			t.Logf("count: %v", err)
		}
		if err := tr.Check(CheckConfig{}); err != nil {
			return
		}
		if err := tr.Insert(box(0.5, 0.51), 1<<40); err != nil {
			t.Fatalf("insert into a tree Check passed: %v", err)
		}
		if err := tr.Check(CheckConfig{}); err != nil {
			t.Fatalf("check after the insert: %v", err)
		}
	})
}
