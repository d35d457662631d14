package extsort

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// dupEntries makes entries whose sort keys collide heavily (only 16
// distinct center positions), the case where run-sort stability is the
// only thing keeping the merged order deterministic.
func dupEntries(n int) []node.Entry {
	out := randEntries(n, 9)
	for i := range out {
		x := float64(i % 16)
		w := out[i].Rect.Max[0] - out[i].Rect.Min[0]
		out[i].Rect.Min[0], out[i].Rect.Max[0] = x, x+w
	}
	return out
}

// TestSortWorkerSweepIdentical runs the same spilling sort at several
// worker counts and requires the emitted sequence to match entry for
// entry, including on duplicate keys.
func TestSortWorkerSweepIdentical(t *testing.T) {
	entries := dupEntries(3000)
	collect := func(workers int) []node.Entry {
		s, err := NewSorter(2, 128, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		var got []node.Entry
		if err := s.Sort(ByCenter(0), sliceSource(entries), func(e node.Entry) error {
			got = append(got, node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := collect(1)
	for _, workers := range []int{2, 4, 8} {
		got := collect(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d emitted %d entries, workers=1 emitted %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Ref != want[i].Ref {
				t.Fatalf("workers=%d position %d: ref %d, workers=1 put ref %d",
					workers, i, got[i].Ref, want[i].Ref)
			}
		}
	}
}

// checkReleased fails the test if dir still holds a run file or more
// goroutines are live than before the sort started. Close waits for the
// prefetch readers, so at most their final return is still in flight — but
// on a loaded machine (the race detector, other test binaries on few cores)
// that return can take a while to be scheduled, so the count is polled up to
// a wall-clock deadline rather than for a fixed number of yields. A goroutine
// that never exits still fails the test, at the deadline.
func checkReleased(t *testing.T, dir string, goroutinesBefore int) {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("%d temp files left behind", len(names))
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live 5 s after Close, %d before the sort", runtime.NumGoroutine(), goroutinesBefore)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// spillingSorter is a 2-D sorter that cuts a 1000-entry input into ~16
// runs, sorted and spilled by four workers.
func spillingSorter(t *testing.T, dir string) *Sorter {
	t.Helper()
	s, err := NewSorter(2, 64, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	return s
}

// recordSource yields entries as page records, all in one buffer it
// overwrites between calls.
func recordSource(entries []node.Entry) func() ([]byte, bool, error) {
	next := sliceSource(entries)
	var rec []byte
	return func() ([]byte, bool, error) {
		e, ok := next()
		if !ok {
			return nil, false, nil
		}
		rec = node.AppendRecord(rec[:0], e.Rect, e.Ref)
		return rec, true, nil
	}
}

// TestSortEmitErrorCleansSpills stops a merge partway — an emit error, a
// stream abandoned with Close, a second sort fed from the live merge that
// cannot spill — and checks that the error comes back in-band and every
// run file and prefetch reader is gone.
func TestSortEmitErrorCleansSpills(t *testing.T) {
	boom := errors.New("emit failed")
	t.Run("emit error", func(t *testing.T) {
		dir, before := t.TempDir(), runtime.NumGoroutine()
		emitted := 0
		err := spillingSorter(t, dir).Sort(ByCenter(0), sliceSource(randEntries(1000, 2)), func(node.Entry) error {
			emitted++
			if emitted == 100 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got error %v, want %v", err, boom)
		}
		checkReleased(t, dir, before)
	})
	t.Run("abandoned stream", func(t *testing.T) {
		dir, before := t.TempDir(), runtime.NumGoroutine()
		st, err := spillingSorter(t, dir).Ingest(ByCenter(0), recordSource(randEntries(1000, 2)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != 1000 {
			t.Fatalf("Len() = %d before the first Next, want 1000", st.Len())
		}
		for i := 0; i < 100; i++ {
			if _, ok, err := st.Next(); !ok || err != nil {
				t.Fatalf("entry %d: ok %v, err %v", i, ok, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		checkReleased(t, dir, before)
		if err := st.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
	t.Run("downstream sort cannot spill", func(t *testing.T) {
		// The external build's shape: a slab of the live x-merge feeds a
		// y-sort whose own spill fails while the x-run files are open.
		dir, before := t.TempDir(), runtime.NumGoroutine()
		s := spillingSorter(t, dir)
		x, err := s.Ingest(ByCenter(0), recordSource(randEntries(1000, 2)))
		if err != nil {
			t.Fatal(err)
		}
		s.tmpDir = filepath.Join(dir, "gone")
		take := 300
		y, err := s.Ingest(ByCenter(1), func() ([]byte, bool, error) {
			if take == 0 {
				return nil, false, nil
			}
			take--
			return x.Next()
		})
		if !errors.Is(err, os.ErrNotExist) || y != nil {
			t.Fatalf("y-sort into a missing directory: stream %v, error %v", y, err)
		}
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
		checkReleased(t, dir, before)
	})
}

// TestSortIngestErrorCleansSpills kills the source mid-stream — after
// several runs have already spilled — with an error of its own and with a
// record of the wrong size, and checks the spilled runs are removed.
func TestSortIngestErrorCleansSpills(t *testing.T) {
	boom := errors.New("source failed")
	for name, last := range map[string]func() ([]byte, bool, error){
		"source error": func() ([]byte, bool, error) { return nil, false, boom },
		// A 3-D straggler into the 2-D sorter: rejected at ingest.
		"dim mismatch": func() ([]byte, bool, error) {
			return node.AppendRecord(nil, geom.PointRect(geom.Point{0, 0, 0}), 0), true, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, before := t.TempDir(), runtime.NumGoroutine()
			good := recordSource(randEntries(400, 3))
			st, err := spillingSorter(t, dir).Ingest(ByCenter(0), func() ([]byte, bool, error) {
				if rec, ok, _ := good(); ok {
					return rec, true, nil
				}
				return last()
			})
			if err == nil || st != nil {
				t.Fatalf("failed ingest returned stream %v, error %v", st, err)
			}
			if name == "source error" && !errors.Is(err, boom) {
				t.Fatalf("got error %v, want %v", err, boom)
			}
			checkReleased(t, dir, before)
		})
	}
}

// TestSortLeavesNoTempFiles pins the other half of the cleanup contract:
// a successful spilling sort removes every run file it created.
func TestSortLeavesNoTempFiles(t *testing.T) {
	dir, before := t.TempDir(), runtime.NumGoroutine()
	s := spillingSorter(t, dir)
	if err := s.Sort(ByCenter(0), sliceSource(randEntries(1000, 4)), func(node.Entry) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != (Stats{Sorts: 1, EntriesSorted: 1000, RunsSpilled: 16, Merges: 1}) {
		t.Fatalf("stats after one spilling sort: %+v", got)
	}
	checkReleased(t, dir, before)
}
