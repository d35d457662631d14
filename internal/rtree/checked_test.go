package rtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/storage"
)

// The tests in this file pin "validate a page once per buffer residency"
// (viewOf in traverse.go): the full check runs exactly as often as the
// bytes under a traversal are new, and every corruption the per-visit check
// used to reject is still rejected, with the same sentinel, at the first
// visit after the bytes could have changed.

// packedPager returns a pager holding a flushed packed tree of n entries
// and the entries themselves.
func packedPager(t testing.TB, n, capacity int) (storage.Pager, []node.Entry) {
	t.Helper()
	pager := storage.NewMemPager(4096)
	tr, err := Create(buffer.NewPool(pager, 64), Config{Dims: 2, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	entries := randRects(n, 97)
	if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return pager, entries
}

// readTape runs a fixed mix of every read-only traversal — window Search,
// Count, point query, k-nearest, a self-join and a full Scan — and fails on
// any error. A Count's window spans the tree top to bottom and 0.6 across, so
// it holds whole leaves and level-1 nodes of the x-sorted packing: those
// visits are the covered arm's, which reads a page's header only. The Scan
// comes last, so the tape ends having visited every page.
func readTape(t testing.TB, tr *Tree, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sink := func(node.Entry) bool { return true }
	for op := 0; op < 120; op++ {
		x, y := rng.Float64(), rng.Float64()
		q := geom.R2(x, y, math.Min(x+0.05, 1.1), math.Min(y+0.05, 1.1))
		var err error
		switch op % 4 {
		case 0:
			err = tr.Search(q, sink)
		case 1:
			_, err = tr.Count(geom.R2(x-0.3, -0.1, x+0.3, 1.1))
		case 2:
			err = tr.SearchPoint(geom.Pt2(x, y), sink)
		case 3:
			_, _, err = tr.NearestK(geom.Pt2(x, y), 5)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	pairs := 0
	if err := Join(tr, tr, func(a, b node.Entry) bool { pairs++; return pairs < 500 }); err != nil {
		t.Fatal(err)
	}
	if err := tr.Scan(sink); err != nil {
		t.Fatal(err)
	}
}

// TestCheckedPagesEqualDiskReads is the exact-count form of the claim: over
// a read-only tape every miss is followed by one full validation and no hit
// by any, so CheckedPages == DiskReads whatever the buffer size or manager,
// and a tape replayed over a buffer that holds the whole tree
// validates nothing at all.
func TestCheckedPagesEqualDiskReads(t *testing.T) {
	pager, _ := packedPager(t, 6000, 16)
	// Room for the whole tree in every shard: a page-number hash never
	// splits the pages exactly evenly.
	whole := 4 * pager.NumPages()
	managers := map[string]func(pages int) buffer.Manager{
		"pool-lru": func(n int) buffer.Manager { return buffer.NewPool(pager, n) },
		"sharded-4": func(n int) buffer.Manager {
			s, err := buffer.NewSharded(pager, n, 4)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, mk := range managers {
		for _, pages := range []int{10, 250, whole} {
			t.Run(fmt.Sprintf("%s/%d", name, pages), func(t *testing.T) {
				mgr := mk(pages)
				tr, err := Open(mgr)
				if err != nil {
					t.Fatal(err)
				}
				mgr.ResetStats() // the meta page's read: not a node, never validated
				readTape(t, tr, 1)
				cold, io := tr.ReadStats(), mgr.Stats()
				if cold.CheckedPages != uint64(io.DiskReads) {
					t.Fatalf("CheckedPages %d, DiskReads %d", cold.CheckedPages, io.DiskReads)
				}
				if cold.ViewPages != uint64(io.LogicalReads) {
					t.Fatalf("ViewPages %d, LogicalReads %d: the tape's visits and fetches differ", cold.ViewPages, io.LogicalReads)
				}
				if pages < whole && io.Evictions == 0 {
					t.Fatal("no eviction pressure: the small-buffer case tests nothing")
				}
				if pages < whole {
					return
				}
				readTape(t, tr, 2)
				warm := tr.ReadStats()
				if warm.CheckedPages != cold.CheckedPages {
					t.Fatalf("warm tape validated %d pages, want 0", warm.CheckedPages-cold.CheckedPages)
				}
				if warm.ViewPages == cold.ViewPages {
					t.Fatal("warm tape visited nothing")
				}
				if got := mgr.Stats().DiskReads; got != io.DiskReads {
					t.Fatalf("warm tape read %d pages from disk", got-io.DiskReads)
				}
			})
		}
	}
}

// putCRC recomputes a node page's payload checksum, so a tampered payload
// reaches the checks behind the CRC.
func putCRC(page []byte) {
	end := node.HeaderSize + int(binary.LittleEndian.Uint16(page[6:]))*node.EntrySize(int(page[3]))
	binary.LittleEndian.PutUint32(page[8:], crc32.ChecksumIEEE(page[node.HeaderSize:end]))
}

// corruptions are the corrupted-page fixtures of internal/node's
// TestViewRejectsWhatUnmarshalRejects plus the tree's own dimensionality
// gate, as edits to a valid 2-D page, each with the sentinel it must raise.
var corruptions = []struct {
	name   string
	want   error
	mutate func(page []byte)
}{
	{"bad crc", node.ErrBadChecksum, func(p []byte) { p[100] ^= 0xFF }},
	{"NaN", node.ErrCorrupt, func(p []byte) {
		binary.LittleEndian.PutUint64(p[node.HeaderSize:], math.Float64bits(math.NaN()))
		putCRC(p)
	}},
	{"min above max", node.ErrCorrupt, func(p []byte) {
		binary.LittleEndian.PutUint64(p[node.HeaderSize:], math.Float64bits(5))
		binary.LittleEndian.PutUint64(p[node.HeaderSize+8:], math.Float64bits(4))
		putCRC(p)
	}},
	{"bad magic", node.ErrBadMagic, func(p []byte) { p[0] = 0 }},
	{"bad version", node.ErrBadVersion, func(p []byte) { p[2] = 9 }},
	{"count overflow", node.ErrCorrupt, func(p []byte) { p[6], p[7] = 0xFF, 0xFF }},
	{"wrong dims", node.ErrCorrupt, func(p []byte) {
		n := node.Node{Level: int(binary.LittleEndian.Uint16(p[4:])), Dims: 3,
			Entries: []node.Entry{{Rect: geom.UnitCube(3), Ref: 1}}}
		if err := node.Marshal(&n, p); err != nil {
			panic(err)
		}
	}},
}

// TestCorruptionRejectedAfterEveryChange is detection parity with the
// per-visit check. A tree whose every frame is marked (a Scan ran) has its
// root page corrupted through each way bytes can legitimately change —
// a reload from the pager, a Fetch + MarkDirty write, a write pin — and the
// very next visit must reject it with the fixture's sentinel, for queries
// and for a mutation's descent alike, and keep rejecting it: a failed
// check must never leave a mark behind.
func TestCorruptionRejectedAfterEveryChange(t *testing.T) {
	deliveries := []struct {
		name    string
		deliver func(t *testing.T, tr *Tree, mutate func([]byte))
	}{
		{"reload", func(t *testing.T, tr *Tree, mutate func([]byte)) {
			pager := tr.Pool().Pager()
			page := make([]byte, pager.PageSize())
			if err := pager.ReadPage(tr.Root(), page); err != nil {
				t.Fatal(err)
			}
			mutate(page)
			if err := pager.WritePage(tr.Root(), page); err != nil {
				t.Fatal(err)
			}
			if err := tr.Pool().Invalidate(); err != nil {
				t.Fatal(err)
			}
		}},
		{"fetch and mark dirty", func(t *testing.T, tr *Tree, mutate func([]byte)) {
			f, err := tr.Pool().Fetch(tr.Root())
			if err != nil {
				t.Fatal(err)
			}
			mutate(f.Data())
			f.MarkDirty()
			tr.Pool().Release(f)
		}},
		{"write pin", func(t *testing.T, tr *Tree, mutate func([]byte)) {
			f, err := tr.Pool().FetchMut(tr.Root())
			if err != nil {
				t.Fatal(err)
			}
			mutate(f.Data())
			if err := tr.Pool().ReleaseMut(f); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range deliveries {
		for _, c := range corruptions {
			t.Run(d.name+"/"+c.name, func(t *testing.T) {
				tr := newTree(t, 8)
				if err := tr.BulkLoad(randRects(300, 5), xSortOrderer{}); err != nil {
					t.Fatal(err)
				}
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := tr.Scan(func(node.Entry) bool { return true }); err != nil {
					t.Fatal(err)
				}
				f, err := tr.Pool().Fetch(tr.Root())
				if err != nil {
					t.Fatal(err)
				}
				marked := f.Checked()
				tr.Pool().Release(f)
				if !marked {
					t.Fatal("the root's frame is not marked after a Scan: the case tests nothing")
				}

				d.deliver(t, tr, c.mutate)

				everything := geom.R2(-1, -1, 2, 2)
				visits := map[string]func() error{
					"Search":  func() error { return tr.Search(everything, func(node.Entry) bool { return true }) },
					"Count":   func() error { _, err := tr.Count(everything); return err },
					"Nearest": func() error { _, _, err := tr.NearestK(geom.Pt2(0.5, 0.5), 3); return err },
					"Scan":    func() error { return tr.Scan(func(node.Entry) bool { return true }) },
					"Insert":  func() error { return tr.Insert(geom.R2(0.5, 0.5, 0.6, 0.6), 1<<40) },
					"Delete":  func() error { _, err := tr.Delete(geom.R2(0.5, 0.5, 0.6, 0.6), 1<<40); return err },
				}
				for round := 0; round < 2; round++ {
					for name, visit := range visits {
						if err := visit(); !errors.Is(err, c.want) {
							t.Fatalf("round %d, %s: err %v, want %v", round, name, err, c.want)
						}
					}
				}
				if err := tr.Check(CheckConfig{}); err == nil {
					t.Fatal("Check accepted the page")
				}
			})
		}
	}
}

// TestStrayWriteCaughtByFullDecode records the one thing the mark gives up:
// bytes changed in a resident frame outside the pin protocol — no
// MarkDirty, no write pin — keep the verdict of the image they replaced, so
// the next traversal no longer re-checksums them. The checkers that exist
// to distrust memory never consult the mark: Check still reports it.
func TestStrayWriteCaughtByFullDecode(t *testing.T) {
	tr := newTree(t, 8)
	if err := tr.BulkLoad(randRects(300, 5), xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Scan(func(node.Entry) bool { return true }); err != nil {
		t.Fatal(err)
	}
	f, err := tr.Pool().Fetch(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[100] ^= 0xFF
	tr.Pool().Release(f)
	if err := tr.Check(CheckConfig{}); !errors.Is(err, node.ErrBadChecksum) {
		t.Fatalf("Check: err %v, want %v", err, node.ErrBadChecksum)
	}
}

// TestFillNodeFailedKeepsPage: records fillNode cannot write — an entry of
// the wrong dimensionality, which tears the record run, or an invalid
// rectangle after valid ones — leave the resident page byte-identical and
// still a valid, visitable node, not a fresh header over half of the old
// entries.
func TestFillNodeFailedKeepsPage(t *testing.T) {
	tr := newTree(t, 8)
	entries := randRects(300, 5)
	if err := tr.BulkLoad(entries, xSortOrderer{}); err != nil {
		t.Fatal(err)
	}
	image := func() []byte {
		f, err := tr.Pool().Fetch(tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Pool().Release(f)
		return append([]byte(nil), f.Data()...)
	}
	before := image()
	good := node.AppendRecord(nil, geom.R2(0, 0, 1, 1), 1)
	nan := geom.R2(0, 0, 1, 1)
	nan.Max[1] = math.NaN()
	for name, recs := range map[string][]byte{
		"wrong dimensionality": node.AppendRecord(slices.Clone(good), geom.UnitCube(3), 2),
		"invalid rectangle":    node.AppendRecord(slices.Clone(good), nan, 2),
	} {
		if err := tr.fillNode(tr.Root(), tr.Height()-1, recs); err == nil {
			t.Fatalf("%s: fillNode accepted the records", name)
		}
		if !bytes.Equal(image(), before) {
			t.Fatalf("%s: failed fillNode changed the page", name)
		}
	}
	q := geom.R2(0.2, 0.2, 0.6, 0.6)
	n, err := tr.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bruteSearch(entries, q)); n != want {
		t.Fatalf("count %d after the failed write, want %d", n, want)
	}
}

// TestConcurrentReadersColdSharded hammers the mark's concurrent edge:
// several readers over one 4-shard pool far smaller than the tree, so
// frames are evicted, reloaded and re-validated constantly while other
// readers hit, read the mark and trust it. Every answer is held to the
// linear-scan oracle; check.sh runs this under -race.
func TestConcurrentReadersColdSharded(t *testing.T) {
	pager, entries := packedPager(t, 4000, 16)
	mgr, err := buffer.NewSharded(pager, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Open(mgr)
	if err != nil {
		t.Fatal(err)
	}
	const readers, queries = 6, 150
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queries; i++ {
				x, y := rng.Float64(), rng.Float64()
				q := geom.R2(x, y, x+0.04, y+0.04)
				want := bruteSearch(entries, q)
				got := 0
				err := tr.Search(q, func(e node.Entry) bool {
					if want[e.Ref] {
						got++
					}
					return true
				})
				n, cerr := tr.Count(q)
				if err = errors.Join(err, cerr); err != nil {
					errs <- err
					return
				}
				if got != len(want) || n != len(want) {
					errs <- fmt.Errorf("reader %d query %d: search %d, count %d, oracle %d", seed, i, got, n, len(want))
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, io := tr.ReadStats(), mgr.Stats()
	if io.Evictions == 0 {
		t.Fatal("no eviction pressure: the test exercised no reload")
	}
	// Two readers can both find a fresh frame unmarked and both validate
	// it, so under concurrency the count may exceed the loads — never the
	// visits, and never fall short of the loads (minus the meta page's).
	if st.CheckedPages < uint64(io.DiskReads-1) || st.CheckedPages > st.ViewPages {
		t.Fatalf("CheckedPages %d outside [DiskReads-1 = %d, ViewPages = %d]", st.CheckedPages, io.DiskReads-1, st.ViewPages)
	}
}
