package strtree

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"strtree/internal/node"
	"strtree/internal/storage"
)

func TestSafeTreeMixedReadersAndWriter(t *testing.T) {
	inner, err := New(Options{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSafe(inner)
	items := randItems(500, 71)
	if err := s.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 16)

	// One writer churning balanced inserts and deletes until told to stop.
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		extra := randItems(500, 72)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			it := extra[i%len(extra)]
			id := uint64(10000 + i)
			if err := s.Insert(it.Rect, id); err != nil {
				errs <- err
				return
			}
			if _, err := s.Delete(it.Rect, id); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Several readers doing a fixed amount of work.
	var readerWG sync.WaitGroup
	for r := 0; r < 6; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 300; i++ {
				q := R2(0.1, 0.1, 0.6, 0.6)
				if _, err := s.Count(q); err != nil {
					errs <- err
					return
				}
				if _, _, err := s.NearestK(Pt2(0.5, 0.5), 3); err != nil {
					errs <- err
					return
				}
				n := 0
				if err := s.Search(q, func(Item) bool { n++; return n < 50 }); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 500 {
		t.Fatalf("Len = %d after balanced insert/delete churn", s.Len())
	}
	if s.Height() < 2 {
		t.Fatalf("height = %d", s.Height())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Unwrap() != inner {
		t.Fatal("Unwrap lost the tree")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSafeTreeCoverageOfReadPaths(t *testing.T) {
	s := NewSafe(mustTree(t, Options{}))
	if err := s.Insert(R2(0.1, 0.1, 0.3, 0.3), 5); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Count(R2(0, 0, 1, 1)); err != nil || n != 1 {
		t.Fatalf("count %d err %v", n, err)
	}
	all, err := s.All(R2(0, 0, 1, 1))
	if err != nil || len(all) != 1 {
		t.Fatalf("all %v err %v", all, err)
	}
	hits := 0
	if err := s.SearchPoint(Pt2(0.2, 0.2), func(Item) bool { hits++; return true }); err != nil || hits != 1 {
		t.Fatalf("point hits %d err %v", hits, err)
	}
	within := 0
	if err := s.SearchWithin(R2(0, 0, 0.5, 0.5), func(Item) bool { within++; return true }); err != nil || within != 1 {
		t.Fatalf("within %d err %v", within, err)
	}
	nn := 0
	if err := s.Nearest(Pt2(0.9, 0.9), func(Item, float64) bool { nn++; return false }); err != nil || nn != 1 {
		t.Fatalf("nearest %d err %v", nn, err)
	}
}

func mustTree(t *testing.T, opts Options) *Tree {
	t.Helper()
	tree, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestDeleteRange(t *testing.T) {
	tree := mustTree(t, Options{Capacity: 16})
	items := randItems(600, 73)
	if err := tree.BulkLoad(items, PackSTR); err != nil {
		t.Fatal(err)
	}
	q := R2(0.25, 0.25, 0.75, 0.75)
	want, err := tree.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := tree.DeleteRange(q)
	if err != nil {
		t.Fatal(err)
	}
	if removed != want {
		t.Fatalf("removed %d, expected %d", removed, want)
	}
	if left, err := tree.Count(q); err != nil || left != 0 {
		t.Fatalf("range not emptied: %d err %v", left, err)
	}
	if tree.Len() != 600-removed {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Read-only views refuse.
	v, err := tree.View(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.DeleteRange(q); err != ErrReadOnly {
		t.Fatalf("view DeleteRange: %v", err)
	}
}

func TestSaveTo(t *testing.T) {
	tree := mustTree(t, Options{Capacity: 16})
	items := randItems(400, 74)
	for _, it := range items {
		if err := tree.Insert(it.Rect, it.ID); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "backup.str")
	if err := tree.SaveTo(path, PackSTR); err != nil {
		t.Fatal(err)
	}
	// Original unchanged.
	if tree.Len() != 400 {
		t.Fatalf("original len = %d", tree.Len())
	}
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 400 || re.Capacity() != 16 {
		t.Fatalf("backup len %d cap %d", re.Len(), re.Capacity())
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := tree.Count(R2(0.2, 0.2, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.Count(R2(0.2, 0.2, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("backup answers differ: %d vs %d", a, b)
	}
}

func TestDumpDOT(t *testing.T) {
	tree := mustTree(t, Options{Capacity: 4})
	if err := tree.BulkLoad(randItems(64, 75), PackSTR); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.DumpDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "digraph rtree {") || !strings.HasSuffix(strings.TrimSpace(s), "}") {
		t.Fatal("not a DOT document")
	}
	// 64 items at capacity 4: 16 leaves + 4 internal + root = 21 nodes.
	if got := strings.Count(s, "[label="); got != 21 {
		t.Fatalf("dot shows %d nodes, want 21", got)
	}
	if got := strings.Count(s, "->"); got != 20 {
		t.Fatalf("dot shows %d edges, want 20", got)
	}
}

// failingWriter accepts room bytes, then fails every write, counting the
// writes attempted after the first failure.
type failingWriter struct {
	room  int
	after int
	fail  bool
}

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.fail {
		w.after++
		return 0, errWriterFull
	}
	if len(p) > w.room {
		w.fail = true
		return w.room, errWriterFull
	}
	w.room -= len(p)
	return len(p), nil
}

// TestDumpDOTStopsAtWriteError: a write that fails inside the walk ends the
// walk and is the error returned — no further writes, no further pages.
func TestDumpDOTStopsAtWriteError(t *testing.T) {
	tree := mustTree(t, Options{Capacity: 4})
	if err := tree.BulkLoad(randItems(64, 75), PackSTR); err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := tree.DumpDOT(&full); err != nil {
		t.Fatal(err)
	}
	for _, room := range []int{0, 20, 100, full.Len() / 2, full.Len() - 1} {
		w := &failingWriter{room: room}
		if err := tree.DumpDOT(w); !errors.Is(err, errWriterFull) {
			t.Fatalf("room %d: DumpDOT returned %v, want the write error", room, err)
		}
		if w.after != 0 {
			t.Fatalf("room %d: %d writes attempted after the failed one", room, w.after)
		}
	}
}

// TestWholeTreeReadersRejectLyingPages crafts pages that carry a valid CRC
// but lie about the structure — a leaf claiming a level above the root, a
// root referencing itself — and holds every whole-tree reader of the public
// API to a clean error wrapping node.ErrCorrupt. Before the walker checked
// levels the first panicked inside the walk's callers and the second
// recursed until the stack overflowed.
func TestWholeTreeReadersRejectLyingPages(t *testing.T) {
	rewrite := func(t *testing.T, tree *Tree, id storage.PageID, mutate func(n *node.Node)) {
		t.Helper()
		if err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
		pager := tree.pool.Pager()
		buf := make([]byte, pager.PageSize())
		if err := pager.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		var n node.Node
		if err := node.Unmarshal(buf, &n); err != nil {
			t.Fatal(err)
		}
		mutate(&n)
		if err := node.Marshal(&n, buf); err != nil {
			t.Fatal(err)
		}
		if err := pager.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := tree.DropCaches(); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(t *testing.T, tree *Tree){
		"wrong level": func(t *testing.T, tree *Tree) {
			// Page 1 is the first leaf a bulk load writes.
			rewrite(t, tree, 1, func(n *node.Node) { n.Level = tree.Height() + 3 })
		},
		"self reference": func(t *testing.T, tree *Tree) {
			root := tree.inner.Root()
			rewrite(t, tree, root, func(n *node.Node) { n.Entries[0].Ref = uint64(root) })
		},
	}
	for name, craft := range cases {
		t.Run(name, func(t *testing.T) {
			tree := mustTree(t, Options{Capacity: 4})
			if err := tree.BulkLoad(randItems(64, 75), PackSTR); err != nil {
				t.Fatal(err)
			}
			craft(t, tree)
			_, metricsErr := tree.Metrics()
			_, utilErr := tree.Utilization()
			for reader, err := range map[string]error{
				"Validate":              tree.Validate(),
				"CheckInvariants":       tree.CheckInvariants(),
				"CheckPackedInvariants": tree.CheckPackedInvariants(),
				"Metrics":               metricsErr,
				"Utilization":           utilErr,
				"DumpDOT":               tree.DumpDOT(io.Discard),
			} {
				if !errors.Is(err, node.ErrCorrupt) {
					t.Errorf("%s: want an error wrapping node.ErrCorrupt, got: %v", reader, err)
				}
			}
		})
	}
}
