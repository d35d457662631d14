package psort

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// refByKeys is the specification: a sequential stable sort by key.
func refByKeys(entries []node.Entry, keys []uint64) {
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case keys[a] < keys[b]:
			return -1
		case keys[a] > keys[b]:
			return 1
		default:
			return 0
		}
	})
	out := make([]node.Entry, len(entries))
	for i, j := range idx {
		out[i] = entries[j]
	}
	copy(entries, out)
}

// byKeys is ByKeys over entries, through their records.
func byKeys(entries []node.Entry, keys []uint64, workers int) {
	OrderEntries(entries, workers, func(recs []byte, dims int) []byte { return ByKeys(recs, dims, keys, workers) })
}

func randomEntries(n int, keySpace uint64, seed int64) ([]node.Entry, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]node.Entry, n)
	keys := make([]uint64, n)
	for i := range entries {
		x := rng.Float64()
		entries[i] = node.Entry{Rect: geom.R2(x, rng.Float64(), x+0.1, rng.Float64()+1), Ref: uint64(i)}
		keys[i] = rng.Uint64() % keySpace
	}
	return entries, keys
}

func sameEntries(t *testing.T, got, want []node.Entry, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Ref != want[i].Ref || !got[i].Rect.Equal(want[i].Rect) {
			t.Fatalf("%s: entry %d: got Ref=%d want Ref=%d", label, i, got[i].Ref, want[i].Ref)
		}
	}
}

// keyPatterns are the inputs on which a radix sort and a comparison sort
// could part ways: ties of every density, keys that differ in one digit
// only (so seven passes are skipped), the float keys at the edges of the
// order-preserving map, and the presorted shapes.
func keyPatterns(n int, seed int64) map[string][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	fill := func(f func(i int) uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f(i)
		}
		return keys
	}
	pats := map[string][]uint64{
		"all-equal": fill(func(int) uint64 { return 0xdeadbeefcafef00d }),
		"random":    fill(func(int) uint64 { return rng.Uint64() }),
		"two":       fill(func(int) uint64 { return rng.Uint64() % 2 }),
		"seven":     fill(func(int) uint64 { return rng.Uint64() % 7 }),
		"dense":     fill(func(int) uint64 { return rng.Uint64() % (1 << 20) }),
		"sorted":    fill(func(i int) uint64 { return uint64(i) * 977 }),
		"reversed":  fill(func(i int) uint64 { return uint64(n-i) * 977 }),
		"organ-pipe": fill(func(i int) uint64 {
			return uint64(min(i, n-1-i)) << 7
		}),
	}
	for b := 0; b < 8; b++ {
		pats["byte"+itoa(b)] = fill(func(int) uint64 {
			return 0x0123456789abcdef ^ (rng.Uint64()&0xff)<<(8*b)
		})
	}
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1040,
		1, -1, math.MaxFloat64, -math.MaxFloat64,
	}
	pats["float-edges"] = fill(func(int) uint64 { return Float64Key(special[rng.Intn(len(special))]) })
	// More than msdMin keys share one top-digit bucket whenever n > 2·msdMin,
	// so the split must split that bucket again; the rest spread out.
	pats["crowded-top"] = fill(func(i int) uint64 {
		if i%2 == 0 {
			return 0x42<<56 | rng.Uint64()>>8
		}
		return rng.Uint64()
	})
	// Keys that differ only in the lowest digit: one scatter, on digit 0,
	// and a split whose buckets are all ties.
	pats["low-digit"] = fill(func(int) uint64 { return 0xfedcba9876543200 | rng.Uint64()&0xff })
	return pats
}

// TestByKeysMatchesStableSort checks the kernel against the sequential
// stable-sort specification — the same permutation, not just a sorted
// one — across every key pattern, sizes on both sides of each threshold
// the kernel has (insertion sort, one more worker per seqMin entries, the
// top-digit split at msdMin) and worker counts: the determinism contract.
func TestByKeysMatchesStableSort(t *testing.T) {
	sizes := []int{0, 1, 2, 3, insertionMax - 1, insertionMax, insertionMax + 1, 1000,
		seqMin - 1, seqMin, seqMin + 1, 2*seqMin - 1, 2 * seqMin, 2*seqMin + 1,
		3*seqMin - 1, 3 * seqMin, 3*seqMin + 17, msdMin - 1, msdMin, msdMin + 1,
		4 * msdMin, 8*seqMin - 1, 8 * seqMin, 8*seqMin + 1, 1 << 17}
	for _, n := range sizes {
		base, _ := randomEntries(n, 1, int64(n))
		for name, keys := range keyPatterns(n, int64(n)*31+7) {
			if n > msdMin+1 && !slices.Contains([]string{"random", "seven", "byte3", "organ-pipe", "float-edges", "crowded-top", "low-digit"}, name) {
				continue // the sizes past the split are about worker chunking and nested splits
			}
			want := slices.Clone(base)
			refByKeys(want, keys)
			for _, workers := range []int{1, 2, 3, 8} {
				got := slices.Clone(base)
				byKeys(got, keys, workers)
				sameEntries(t, got, want, name+" n="+itoa(n)+" w="+itoa(workers))
			}
		}
	}
}

// FuzzByKeys holds the kernel to the stable-sort specification on keys
// read straight from the fuzzer's bytes. The first byte picks the worker
// count; the second, when odd, repeats the keys cyclically past the
// parallel threshold and the top-digit split's, which also makes every key
// a many-way tie.
func FuzzByKeys(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0xff, 0, 0, 0, 0, 0, 0, 0x80, 1})
	f.Add([]byte("\x07\x00the quick brown fox jumps over the lazy dog, twice over the lazy dog"))
	f.Add(append([]byte{2, 1}, make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		workers, repeat := 1, false
		if len(data) >= 2 {
			workers, repeat = 1+int(data[0]%8), data[1]%2 == 1
			data = data[2:]
		}
		var keys []uint64
		for len(data) > 0 {
			var word [8]byte
			data = data[copy(word[:], data):]
			keys = append(keys, binary.LittleEndian.Uint64(word[:]))
		}
		if m := len(keys); repeat && m > 0 {
			for len(keys) < max(workers*seqMin, msdMin)+m {
				keys = append(keys, keys[len(keys)-m])
			}
		}
		want, _ := randomEntries(len(keys), 1, 1)
		got := slices.Clone(want)
		refByKeys(want, keys)
		byKeys(got, keys, workers)
		sameEntries(t, got, want, "workers="+itoa(workers))
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestByCenter checks the center ordering itself and that every worker
// count produces the same permutation.
func TestByCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 20000
	base := make([]node.Entry, n)
	for i := range base {
		// Coarse grid so duplicate centers are common.
		x := float64(rng.Intn(64))
		y := rng.Float64()
		base[i] = node.Entry{Rect: geom.R2(x, y, x+2, y+1), Ref: uint64(i)}
	}
	want := slices.Clone(base)
	ByCenter(want, 0, 1)
	for i := 1; i < len(want); i++ {
		a, b := want[i-1].Rect.CenterAxis(0), want[i].Rect.CenterAxis(0)
		if a > b {
			t.Fatalf("not sorted at %d: %v > %v", i, a, b)
		}
		//strlint:ignore floateq exact equality detects the tie runs whose stability is under test
		if a == b && want[i-1].Ref > want[i].Ref {
			t.Fatalf("tie at %d not in original order: %d before %d", i, want[i-1].Ref, want[i].Ref)
		}
	}
	for _, workers := range []int{2, 4, 8, 32} {
		got := slices.Clone(base)
		ByCenter(got, 0, workers)
		sameEntries(t, got, want, "workers="+itoa(workers))
	}
}

// TestFloat64Key checks the order-preserving bit mapping, including the
// signed-zero collapse.
func TestFloat64Key(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -1, -math.SmallestNonzeroFloat64,
		0, 1e-300, 1, 2.5, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if Float64Key(vals[i-1]) >= Float64Key(vals[i]) {
			t.Fatalf("key order broken between %v and %v", vals[i-1], vals[i])
		}
	}
	if Float64Key(math.Copysign(0, -1)) != Float64Key(0) {
		t.Fatalf("-0 and +0 must share a key")
	}
}

// TestChunksCovers checks the parallel range helper covers [0, n) exactly
// once for awkward worker/size combinations.
func TestChunksCovers(t *testing.T) {
	for _, n := range []int{0, 1, 5, seqMin, seqMin + 3, 100003} {
		for _, workers := range []int{1, 2, 3, 7, 64, 100005} {
			hits := make([]int32, n)
			var mu chan struct{} = make(chan struct{}, 1)
			mu <- struct{}{}
			Chunks(n, workers, func(lo, hi int) {
				<-mu
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu <- struct{}{}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, h)
				}
			}
		}
	}
}

func BenchmarkByCenter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]node.Entry, 1<<20)
	for i := range entries {
		x, y := rng.Float64(), rng.Float64()
		entries[i] = node.Entry{Rect: geom.R2(x, y, x+0.01, y+0.01), Ref: uint64(i)}
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			work := make([]node.Entry, len(entries))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, entries)
				ByCenter(work, 0, workers)
			}
		})
	}
}

// BenchmarkSortPairs times the kernel alone on center keys of uniform
// coordinates, at the size of one leaf slab of the ledger's build (7 242
// pairs) and of its whole first-axis sort (500 000). Each iteration sorts
// fresh keys: one key set sorted over and over trains the branch predictor
// and reads fast.
func BenchmarkSortPairs(b *testing.B) {
	for _, n := range []int{7242, 500000} {
		for _, workers := range []int{1, 2} {
			b.Run("n="+itoa(n)+"/workers="+itoa(workers), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				ps, tmp := make([]pair, n), make([]pair, n)
				var sorting time.Duration
				for i := 0; i < b.N; i++ {
					for j := range ps {
						ps[j] = pair{key: Float64Key(rng.Float64()), idx: j}
					}
					t0 := time.Now()
					sortPairs(ps, tmp, false, workers)
					sorting += time.Since(t0)
				}
				b.ReportMetric(float64(sorting.Nanoseconds())/float64(b.N*n), "ns/pair")
			})
		}
	}
}

// kEntries makes n k-dimensional entries on a coarse grid (ties are common),
// each over two slices of its own, as a caller's rectangles are.
func kEntries(n, k int, seed int64) []node.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]node.Entry, n)
	for i := range out {
		r := geom.Rect{Min: make(geom.Point, k), Max: make(geom.Point, k)}
		for d := 0; d < k; d++ {
			r.Min[d] = float64(rng.Intn(32))
			r.Max[d] = r.Min[d] + float64(1+rng.Intn(4))
		}
		out[i] = node.Entry{Rect: r, Ref: uint64(i)}
	}
	return out
}

// deepClone copies entries and the coordinates under them.
func deepClone(entries []node.Entry) []node.Entry {
	out := make([]node.Entry, len(entries))
	for i, e := range entries {
		out[i] = node.Entry{Rect: e.Rect.Clone(), Ref: e.Ref}
	}
	return out
}

// refByCenter is the specification of a center sort: sort.SliceStable over
// the entries themselves.
func refByCenter(entries []node.Entry, axis int) {
	sort.SliceStable(entries, func(a, b int) bool {
		return entries[a].Rect.CenterAxis(axis) < entries[b].Rect.CenterAxis(axis)
	})
}

// TestApplyMovesCoordinates is the contract of the one move and of the entry
// adapter around it: whatever route led to Apply — ByCenter, ByKeys, or a
// Perm refined over nested sub-ranges — the entries equal the stable-sort
// reference by value, at k = 2 and 3, for one entry and for none,
// identically at every worker count; and their coordinates sit in storage of
// OrderEntries' own, each slice with cap == len, so neither the caller's
// rectangles nor a neighbouring entry can be reached through them.
func TestApplyMovesCoordinates(t *testing.T) {
	routes := map[string]struct {
		sort func(entries []node.Entry, workers int)
		ref  func(entries []node.Entry)
	}{
		"ByCenter": {
			func(e []node.Entry, w int) { ByCenter(e, 1, w) },
			func(e []node.Entry) { refByCenter(e, 1) },
		},
		"ByKeys": {
			func(e []node.Entry, w int) { byKeys(e, refKeys(e), w) },
			func(e []node.Entry) { refByKeys(e, refKeys(e)) },
		},
		// STR's shape: the whole range on axis 0, thirds of it on axis 1,
		// halves of each third on the last axis, then one Apply.
		"nested Perm": {
			func(e []node.Entry, w int) {
				OrderEntries(e, w, func(recs []byte, dims int) []byte {
					p := NewPerm(recs, dims)
					p.SortByCenter(0, p.Len(), 0, w)
					eachNestedRange(p.Len(), func(lo, hi, depth int) { p.SortByCenter(lo, hi, axisAt(e, depth), 1) })
					return p.Apply(w)
				})
			},
			func(e []node.Entry) {
				refByCenter(e, 0)
				eachNestedRange(len(e), func(lo, hi, depth int) { refByCenter(e[lo:hi], axisAt(e, depth)) })
			},
		},
	}
	for name, r := range routes {
		for _, k := range []int{2, 3} {
			for _, n := range []int{0, 1, 2, 300, 3 * seqMin} {
				label := name + " k=" + itoa(k) + " n=" + itoa(n)
				orig := kEntries(n, k, int64(31*n+k))
				want := deepClone(orig)
				r.ref(want)
				for _, workers := range []int{1, 2, 8} {
					input := deepClone(orig)
					got := slices.Clone(input)
					r.sort(got, workers)
					sameEntries(t, got, want, label+" workers="+itoa(workers))
					for i := range got {
						if len(got[i].Rect.Min) != k || len(got[i].Rect.Max) != k {
							t.Fatalf("%s: entry %d has dims %d/%d", label, i, len(got[i].Rect.Min), len(got[i].Rect.Max))
						}
						if cap(got[i].Rect.Min) != k || cap(got[i].Rect.Max) != k {
							t.Fatalf("%s: entry %d: cap(Min) %d, cap(Max) %d, want %d: an append would reach the next coordinates",
								label, i, cap(got[i].Rect.Min), cap(got[i].Rect.Max), k)
						}
					}
					// The caller's rectangles are no longer what the entries
					// read, and an append to one entry stays its own.
					for i := range input {
						for d := 0; d < k; d++ {
							input[i].Rect.Min[d], input[i].Rect.Max[d] = math.NaN(), math.NaN()
						}
					}
					for i := range got {
						_ = append(got[i].Rect.Min, -1)
						_ = append(got[i].Rect.Max, -1)
					}
					sameEntries(t, got, want, label+" workers="+itoa(workers)+" after mutating the originals")
				}
			}
		}
	}
}

// refKeys derives a tie-heavy key per entry from its own coordinates, so
// the sort under test and the reference compute the same keys.
func refKeys(entries []node.Entry) []uint64 {
	keys := make([]uint64, len(entries))
	for i, e := range entries {
		keys[i] = uint64(e.Rect.Min[0])%7<<8 | uint64(e.Rect.Max[len(e.Rect.Max)-1])%5
	}
	return keys
}

// eachNestedRange calls f on the thirds of [0, n) at depth 1 and on the
// halves of every third at depth 2.
func eachNestedRange(n int, f func(lo, hi, depth int)) {
	for t := 0; t < 3; t++ {
		lo, hi := n*t/3, n*(t+1)/3
		f(lo, hi, 1)
		mid := lo + (hi-lo)/2
		f(lo, mid, 2)
		f(mid, hi, 2)
	}
}

// axisAt is the axis sorted at a nesting depth: the last axis stands in
// where the entries have no axis that deep.
func axisAt(entries []node.Entry, depth int) int {
	if len(entries) == 0 {
		return 0
	}
	return min(depth, entries[0].Rect.Dim()-1)
}

// TestApplyRejectsMixedDimensions: the slab has one stride.
func TestApplyRejectsMixedDimensions(t *testing.T) {
	entries := append(kEntries(4, 2, 1), kEntries(1, 3, 2)...)
	defer func() {
		if recover() == nil {
			t.Fatal("sorting 2-D and 3-D entries together did not panic")
		}
	}()
	ByCenter(entries, 0, 1)
}
