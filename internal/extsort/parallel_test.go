package extsort

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/psort"
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

// TestLoneRunWorkersIdentical: an input that fits one run is sorted by
// every worker, and its records come out byte for byte as at one worker
// and as from a spilling sort of the same input, 2-D and 3-D, on keys
// that tie.
func TestLoneRunWorkersIdentical(t *testing.T) {
	const n = 20000 // past psort's MSD split, so four workers share it
	rng := rand.New(rand.NewSource(12))
	for dims := 2; dims <= 3; dims++ {
		var recs []byte
		for i := 0; i < n; i++ {
			var lo, hi geom.Point
			for d := 0; d < dims; d++ {
				x := float64(rng.Intn(64)) / 64 // 64 centres an axis: keys tie
				lo, hi = append(lo, x), append(hi, x+rng.Float64()/100)
			}
			recs = node.AppendRecord(recs, geom.Rect{Min: lo, Max: hi}, uint64(i))
		}
		sortRecs := func(runSize, workers int) ([]byte, Stats) {
			s, err := NewSorter(dims, runSize, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s.Workers = workers
			size, off := node.EntrySize(dims), 0
			st, err := s.Ingest(ByCenter(dims-1), func() ([]byte, bool, error) {
				if off == len(recs) {
					return nil, false, nil
				}
				off += size
				return recs[off-size : off], true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return drain(t, st), s.Stats()
		}
		want, _ := sortRecs(1024, 1)
		for _, workers := range []int{1, 4} {
			got, stats := sortRecs(2*n, workers)
			if stats.RunsSpilled != 0 {
				t.Fatalf("%d-D, workers=%d: %d runs spilled at RunSize 2n", dims, workers, stats.RunsSpilled)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d-D, workers=%d: lone-run order differs from the spilled sort's", dims, workers)
			}
		}
	}
}

// checkReleased fails the test if dir still holds a run file or more
// goroutines are live than before the sort started. Ingest waits for its
// spill workers, so at most their final return is still in flight — but on
// a loaded machine (the race detector, other test binaries on few cores)
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

// drain reads st to its end through NextRun, closes it and returns its
// records.
func drain(t *testing.T, st *Stream) []byte {
	t.Helper()
	var out []byte
	for {
		recs, ok, err := st.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, recs...)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return out
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
// run file and goroutine is gone.
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
			t.Fatalf("Len() = %d before the first NextRun, want 1000", st.Len())
		}
		if recs, ok, err := st.NextRun(); !ok || err != nil || len(recs) == 1000*node.EntrySize(2) {
			t.Fatalf("first NextRun: %d bytes, ok %v, err %v; want part of the stream", len(recs), ok, err)
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
		y, run, err := s.IngestStream(ByCenter(1), x, 300)
		if !errors.Is(err, os.ErrNotExist) || y != nil || run != nil {
			t.Fatalf("y-sort into a missing directory: stream %v, %d-byte run, error %v", y, len(run), err)
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

// TestStreamTruncatedRun cuts one of four spilled run files short once
// ingest has returned, halfway through — inside a record, and on a record
// boundary — and requires the merge to report an error, never to end as a
// clean but shorter stream, the error to stick through three more calls
// and a take off the stream, and Close to leave no run file behind.
func TestStreamTruncatedRun(t *testing.T) {
	const runSize = 1 << 13 // sixteen merge batches
	size := node.EntrySize(2)
	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"mid-record", runSize/2*size + size/2},
		{"record boundary", runSize / 2 * size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, before := t.TempDir(), runtime.NumGoroutine()
			s, err := NewSorter(2, runSize, dir)
			if err != nil {
				t.Fatal(err)
			}
			s.Workers = 2
			st, err := s.Ingest(ByCenter(0), recordSource(randEntries(4*runSize, 7)))
			if err != nil {
				t.Fatal(err)
			}
			names, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 4 {
				t.Fatalf("%d run files, want 4", len(names))
			}
			if err := os.Truncate(filepath.Join(dir, names[1].Name()), int64(tc.cut)); err != nil {
				t.Fatal(err)
			}
			var first error
			for n := 0; first == nil; {
				recs, ok, err := st.NextRun()
				if first = err; err == nil && !ok {
					t.Fatalf("the stream ended cleanly after %d of %d records", n, st.Len())
				}
				n += len(recs) / size
			}
			for call := 1; call <= 3; call++ {
				if recs, ok, err := st.NextRun(); !errors.Is(err, first) || ok || len(recs) > 0 {
					t.Fatalf("call %d after the error %q: %d bytes, ok %v, error %v", call, first, len(recs), ok, err)
				}
			}
			// A slab sort merging off the failed stream meets the same error.
			if y, run, err := s.IngestStream(ByCenter(1), st, 10); !errors.Is(err, first) || y != nil || run != nil {
				t.Fatalf("a take off the failed stream: stream %v, %d-byte run, error %v", y, len(run), err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
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

// TestStreamRecordLifetime holds every run NextRun returns and checks that
// its bytes stay as returned until the next call, while each spilled run
// reads its batches into two buffers in turn and a lone run's array goes
// back to the sorter: over a merge of five runs, each sixteen batches long
// so that every buffer is read into many times, and over a lone run, at
// Workers 1 and 4. The records are the in-memory sort's all the same.
func TestStreamRecordLifetime(t *testing.T) {
	entries := dupEntries(40000)
	recs, _ := psort.Encode(entries, 1)
	p := psort.NewPerm(recs, 2)
	p.SortByCenter(0, p.Len(), 0, 1)
	want := p.Apply(nil, 1)
	for _, runSize := range []int{16 * mergeBatch, 1 << 16} {
		for _, workers := range []int{1, 4} {
			s, err := NewSorter(2, runSize, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s.Workers = workers
			st, err := s.Ingest(ByCenter(0), recordSource(entries))
			if err != nil {
				t.Fatal(err)
			}
			var held, kept, got []byte
			for call := 0; ; call++ {
				if !bytes.Equal(held, kept) {
					t.Fatalf("run size %d, workers %d: the records call %d returned changed before call %d", runSize, workers, call-1, call)
				}
				recs, ok, err := st.NextRun()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				held, kept = recs, append(kept[:0], recs...)
				got = append(got, recs...)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("run size %d, workers %d: the stream differs from the in-memory sort", runSize, workers)
			}
		}
	}
}
