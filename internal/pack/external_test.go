package pack

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
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

func cube3() geom.Rect { return geom.UnitCube(3) }

// sliceSource yields entries as page records, all in one buffer it
// overwrites between calls.
func sliceSource(entries []node.Entry) func() ([]byte, bool, error) {
	i := 0
	var rec []byte
	return func() ([]byte, bool, error) {
		if i >= len(entries) {
			return nil, false, nil
		}
		rec = node.AppendRecord(rec[:0], entries[i].Rect, entries[i].Ref)
		i++
		return rec, true, nil
	}
}

// collectPack drains the external STR order of entries into one record
// array.
func collectPack(t *testing.T, s STRExternal, dims, n int, entries []node.Entry) ([]byte, SortStats) {
	t.Helper()
	ordered, err := s.Open(dims, n, sliceSource(entries))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for {
		rec, ok, err := ordered.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, rec...)
	}
	if err := ordered.Close(); err != nil {
		t.Fatal(err)
	}
	return out, ordered.Stats()
}

// TestExternalSTRMatchesInMemory: the external order is STR.OrderRecords'
// byte for byte. Both sorts are stable, so the orders agree on tied centre
// coordinates (the snapped input) as well as on tie-free ones, whether only
// the first-axis sort spills (256) or the slab sorts do too (16), and at
// k = 3 the slabs of slabs are cut as STR.tile cuts them.
func TestExternalSTRMatchesInMemory(t *testing.T) {
	const n = 100
	rng := rand.New(rand.NewSource(91))
	snapped := make([]node.Entry, 5000)
	for i := range snapped {
		// Equal squares centred on a 21x21 grid: about eleven entries share
		// each centre exactly.
		x, y := float64(rng.Intn(21))/20, float64(rng.Intn(21))/20
		snapped[i] = node.Entry{Rect: geom.R2(x-0.01, y-0.01, x+0.01, y+0.01), Ref: uint64(i)}
	}
	cubes := make([]node.Entry, 5000)
	for i := range cubes {
		// Unit cubes on a 9x9x9 grid: centres tie on every axis.
		lo := geom.Point{float64(rng.Intn(9)), float64(rng.Intn(9)), float64(rng.Intn(9))}
		cubes[i] = node.Entry{Rect: geom.Rect{Min: lo, Max: geom.Point{lo[0] + 1, lo[1] + 1, lo[2] + 1}}, Ref: uint64(i)}
	}
	for _, in := range []struct {
		name    string
		entries []node.Entry
		sorts   uint64 // one on the first axis plus one per slab reached
	}{
		{"tie-free", uniformSquares(5000, 91), 1 + 7},
		{"snapped", snapped, 1 + 7},
		// P = 50: 4 slabs of n*ceil(50^(2/3)) = 1400 (the last 800); a
		// full one is cut into 4 sub-slabs of n*ceil(14^(1/2)) = 400, the
		// last into 3 of n*ceil(8^(1/2)) = 300.
		{"3-D tied", cubes, 1 + 4 + 3*4 + 3},
	} {
		dims := in.entries[0].Rect.Dim()
		recs, _ := psort.Encode(in.entries, 1)
		want := STR{}.OrderRecords(recs, dims, n, 0)
		for _, runSize := range []int{256, 16} {
			got, stats := collectPack(t, STRExternal{RunSize: runSize, TmpDir: t.TempDir()}, dims, n, in.entries)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, run size %d: external order (%d bytes) differs from STR.OrderRecords (%d bytes)", in.name, runSize, len(got), len(want))
			}
			if stats.Sorts != in.sorts || stats.EntriesSorted != uint64(dims)*5000 {
				t.Fatalf("%s, run size %d: stats %+v, want %d sorts of %d entries", in.name, runSize, stats, in.sorts, dims*5000)
			}
		}
	}
}

// TestExternalSTRAbandonedMidSlab closes the stream while the x-merge holds
// run files open and the next slab is on its way: a spilled y-sort holding
// run files of its own (RunSize 16), or a slab merged into one run and
// sorted in memory beside the next one's merge (RunSize 1024).
func TestExternalSTRAbandonedMidSlab(t *testing.T) {
	for _, runSize := range []int{16, 1024} {
		dir, before := t.TempDir(), runtime.NumGoroutine()
		ordered, err := STRExternal{RunSize: runSize, TmpDir: dir, Workers: 4}.Open(2, 100, sliceSource(uniformSquares(5000, 93)))
		if err != nil {
			t.Fatal(err)
		}
		for read := 0; read < 1000; {
			run, ok, err := ordered.NextRun()
			if !ok || err != nil {
				t.Fatalf("run size %d, entry %d: ok %v, err %v", runSize, read, ok, err)
			}
			read += len(run) / node.EntrySize(2)
		}
		if err := ordered.Close(); err != nil {
			t.Fatalf("run size %d: %v", runSize, err)
		}
		if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
			t.Fatalf("run size %d: %d run files left after Close (ReadDir error %v)", runSize, len(names), err)
		}
		checkGoroutines(t, before)
	}
}

// checkGoroutines fails the test unless the live goroutine count falls back
// to before. Close waits for every goroutine it stops, so at most their
// final returns are still in flight; on a loaded machine those can take a
// while to be scheduled, so the count is polled up to a deadline.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live 5 s after Close, %d before Open", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// uniformBoxes returns n small boxes of dims axes in the unit cube.
func uniformBoxes(n, dims int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]node.Entry, n)
	for i := range out {
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for d := range lo {
			lo[d] = rng.Float64()
			hi[d] = lo[d] + rng.Float64()/100
		}
		out[i] = node.Entry{Rect: geom.Rect{Min: lo, Max: hi}, Ref: uint64(i)}
	}
	return out
}

// TestExternalSTRReadAheadLifecycle closes a read-ahead stream at three
// points: before its first Next, mid-slab while the next slabs are merged
// and sorted, and after its end. RunSize 16 spills every slab: 800 records
// a slab at k = 2, 1400 a slab and 400 a sub-slab at k = 3. RunSize 1024
// spills the first axis (and at k = 3 the 1400-record slabs) while every
// last-axis slab fits one run, so Close lands while a lone slab is sorted
// on its own goroutine beside the next one's merge. At k = 3 the read-ahead
// also refills the slab of slabs above the last axis. Close returns nil
// every time, and no run file and no goroutine outlives it.
func TestExternalSTRReadAheadLifecycle(t *testing.T) {
	const n = 100
	for _, dims := range []int{2, 3} {
		entries := uniformBoxes(5000, dims, 94)
		recs, _ := psort.Encode(entries, 1)
		want := STR{}.OrderRecords(recs, dims, n, 0)
		for _, runSize := range []int{16, 1024} {
			for _, workers := range []int{2, 4} {
				for _, stop := range []int{0, 1000, len(entries)} {
					name := fmt.Sprintf("%d-D, run size %d, workers=%d, closed after %d", dims, runSize, workers, stop)
					dir, before := t.TempDir(), runtime.NumGoroutine()
					ordered, err := STRExternal{RunSize: runSize, TmpDir: dir, Workers: workers}.Open(dims, n, sliceSource(entries))
					if err != nil {
						t.Fatal(err)
					}
					var got []byte
					for len(got) < stop*node.EntrySize(dims) {
						rec, ok, err := ordered.NextRun()
						if !ok || err != nil {
							t.Fatalf("%s: record %d: ok %v, err %v", name, len(got)/node.EntrySize(dims), ok, err)
						}
						got = append(got, rec...)
					}
					if !bytes.Equal(got, want[:len(got)]) {
						t.Fatalf("%s: the records read differ from STR.OrderRecords'", name)
					}
					if stop == len(entries) {
						if _, ok, err := ordered.NextRun(); ok || err != nil {
							t.Fatalf("%s: past the end: ok %v, err %v", name, ok, err)
						}
					}
					if err := ordered.Close(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
						t.Fatalf("%s: %d run files left (ReadDir error %v)", name, len(names), err)
					}
					checkGoroutines(t, before)
				}
			}
		}
	}
}

// TestExternalSTRTruncatedRun cuts a first-axis run file short once Open
// has returned, inside a record of its second batch, at the lone-slab
// shape (RunSize 1024: five first-axis runs, every 800-record slab merged
// into one run and sorted in memory). The merge that reaches the cut ends
// the stream with a read error, whether the read-ahead or NextRun itself
// met it; three more calls return the same error; Close succeeds and
// leaves no run file and no goroutine behind.
func TestExternalSTRTruncatedRun(t *testing.T) {
	size := node.EntrySize(2)
	for _, workers := range []int{1, 2, 4} {
		dir, before := t.TempDir(), runtime.NumGoroutine()
		ordered, err := STRExternal{RunSize: 1024, TmpDir: dir, Workers: workers}.Open(2, 100, sliceSource(uniformSquares(5000, 97)))
		if err != nil {
			t.Fatal(err)
		}
		// The first slab's merge needs no run's second batch, so no read
		// of the file can have passed the cut yet.
		names, err := os.ReadDir(dir)
		if err != nil || len(names) != 5 {
			t.Fatalf("workers=%d: %d run files (ReadDir error %v), want 5", workers, len(names), err)
		}
		if err := os.Truncate(filepath.Join(dir, names[2].Name()), int64(700*size+size/2)); err != nil {
			t.Fatal(err)
		}
		var first error
		for read := 0; first == nil; {
			run, ok, err := ordered.NextRun()
			if first = err; err == nil && !ok {
				t.Fatalf("workers=%d: the stream ended cleanly after %d records", workers, read)
			}
			read += len(run) / size
		}
		for call := 1; call <= 3; call++ {
			if run, ok, err := ordered.NextRun(); !errors.Is(err, first) || ok || len(run) > 0 {
				t.Fatalf("workers=%d: call %d after the error %q: %d bytes, ok %v, error %v", workers, call, first, len(run), ok, err)
			}
		}
		if err := ordered.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		if names, err := os.ReadDir(dir); err != nil || len(names) != 0 {
			t.Fatalf("workers=%d: %d run files left after Close (ReadDir error %v)", workers, len(names), err)
		}
		checkGoroutines(t, before)
	}
}

// TestExternalSTRSlabSortError: a slab sort that cannot spill ends the
// stream with its error, whether the read-ahead or Next itself met it, and
// Close still stops every goroutine.
func TestExternalSTRSlabSortError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dir, before := t.TempDir(), runtime.NumGoroutine()
		ordered, err := STRExternal{RunSize: 16, TmpDir: dir, Workers: workers}.Open(2, 100, sliceSource(uniformSquares(5000, 95)))
		if err != nil {
			t.Fatal(err)
		}
		// The open run files read on. A read-ahead may be creating files
		// meanwhile, which fails the removal until the directory is gone.
		for deadline := time.Now().Add(5 * time.Second); os.RemoveAll(dir) != nil; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: the spill directory is still there after 5 s", workers)
			}
		}
		for {
			_, ok, err := ordered.NextRun()
			if err != nil {
				if !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("workers=%d: %v, want a failed run-file create", workers, err)
				}
				break
			}
			if !ok {
				t.Fatalf("workers=%d: the stream ended without the slab sort's error", workers)
			}
		}
		_ = ordered.Close() // its run files are gone already, so removing them fails
		checkGoroutines(t, before)
	}
}

func TestExternalSTRTinyAndEmpty(t *testing.T) {
	s := STRExternal{RunSize: 16, TmpDir: t.TempDir()}
	for dims := 1; dims <= 3; dims++ {
		if got, _ := collectPack(t, s, dims, 10, nil); len(got) != 0 {
			t.Fatalf("%d-D: empty input emitted %d bytes", dims, len(got))
		}
	}
	one := uniformSquares(1, 92)
	if got, _ := collectPack(t, s, 2, 10, one); !bytes.Equal(got, node.AppendRecord(nil, one[0].Rect, one[0].Ref)) {
		t.Fatalf("single entry mishandled: %v", got)
	}
}

// TestExternalSTRRejects3D: a 3-D record in a 2-D stream is refused at
// ingest, as are a capacity below 1 and a dimensionality below 1.
func TestExternalSTRRejects3D(t *testing.T) {
	s := STRExternal{RunSize: 16, TmpDir: t.TempDir()}
	if _, err := s.Open(2, 10, sliceSource([]node.Entry{{Rect: cube3()}})); err == nil {
		t.Fatal("3-D entry accepted")
	}
	if _, err := s.Open(0, 10, sliceSource(nil)); err == nil {
		t.Fatal("0-D stream accepted")
	}
	if _, err := s.Open(2, 0, sliceSource(nil)); err == nil {
		t.Fatal("node capacity 0 accepted")
	}
}

func TestExternalSTRDefaultRunSize(t *testing.T) {
	if (STRExternal{}).runSize() != 1<<20 {
		t.Fatal("default run size wrong")
	}
	if (STRExternal{RunSize: 7}).runSize() != 7 {
		t.Fatal("explicit run size ignored")
	}
}

// BenchmarkSTRExternal times the external STR order alone, source to last
// record, at the build ledger's external shape: 131 072 uniform squares,
// capacity 102, RunSize 16 384 (eight first-axis runs spilled), at Workers
// 1 and 2, plus a nospill case at RunSize 1 << 20 and Workers 2, where
// every sort is one in-memory run. Reports entries/s.
func BenchmarkSTRExternal(b *testing.B) {
	entries := uniformSquares(131072, 17)
	recs, _ := psort.Encode(entries, 1)
	size := node.EntrySize(2)
	for _, bc := range []struct {
		name             string
		runSize, workers int
	}{
		{"workers=1", 16384, 1},
		{"workers=2", 16384, 2},
		{"nospill", 1 << 20, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := STRExternal{RunSize: bc.runSize, TmpDir: b.TempDir(), Workers: bc.workers}
			for i := 0; i < b.N; i++ {
				off := 0
				ordered, err := s.Open(2, 102, func() ([]byte, bool, error) {
					if off == len(recs) {
						return nil, false, nil
					}
					off += size
					return recs[off-size : off], true, nil
				})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					run, ok, err := ordered.NextRun()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					n += len(run) / size
				}
				if err := ordered.Close(); err != nil {
					b.Fatal(err)
				}
				if n != len(entries) {
					b.Fatalf("%d of %d records", n, len(entries))
				}
			}
			b.ReportMetric(float64(len(entries))*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
		})
	}
}

// TestExternalSTRRunLifetime holds every run NextRun returns and checks
// that its bytes stay as returned until the next call, while the next
// slabs are merged and sorted into arrays the stream released: with
// every sort spilling (RunSize 16), with the first-axis sort alone
// spilling, each 800-record slab merged into one run sorted in memory
// (RunSize 1024), and with nothing spilling, at Workers 1 and 4. The runs
// are STR.OrderRecords' order all the same.
func TestExternalSTRRunLifetime(t *testing.T) {
	entries := uniformSquares(5000, 96)
	recs, _ := psort.Encode(entries, 1)
	want := STR{}.OrderRecords(recs, 2, 100, 0)
	for _, runSize := range []int{16, 1024, 1 << 20} {
		for _, workers := range []int{1, 4} {
			ordered, err := STRExternal{RunSize: runSize, TmpDir: t.TempDir(), Workers: workers}.Open(2, 100, sliceSource(entries))
			if err != nil {
				t.Fatal(err)
			}
			var held, kept, got []byte
			for call := 0; ; call++ {
				runtime.Gosched() // let the read-ahead run
				if !bytes.Equal(held, kept) {
					t.Fatalf("run size %d, workers %d: the run call %d returned changed before call %d", runSize, workers, call-1, call)
				}
				run, ok, err := ordered.NextRun()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				held, kept = run, append(kept[:0], run...)
				got = append(got, run...)
			}
			if err := ordered.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("run size %d, workers %d: the stream differs from STR.OrderRecords", runSize, workers)
			}
		}
	}
}
