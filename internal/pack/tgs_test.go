package pack

import (
	"math/rand"
	"testing"

	"strtree/internal/geom"
	"strtree/internal/node"
)

func TestTGSIsPermutation(t *testing.T) {
	base := uniformSquares(1234, 21)
	entries := append([]node.Entry(nil), base...)
	TGS{}.Order(entries, 10, 0)
	seen := make(map[uint64]bool, len(entries))
	for _, e := range entries {
		if seen[e.Ref] {
			t.Fatalf("duplicated ref %d", e.Ref)
		}
		seen[e.Ref] = true
	}
	if len(seen) != len(base) {
		t.Fatal("lost entries")
	}
}

func TestTGSTinyInputs(t *testing.T) {
	TGS{}.Order(nil, 10, 0)
	one := uniformSquares(1, 22)
	TGS{}.Order(one, 10, 0)
	two := uniformSquares(2, 23)
	TGS{}.Order(two, 1, 0)
}

func TestTGSSeparatesClusters(t *testing.T) {
	// Two tight, well-separated clusters of 20 points each with n = 20:
	// the greedy binary split must cut exactly between the clusters, so
	// the two nodes have disjoint MBRs.
	rng := rand.New(rand.NewSource(24))
	var entries []node.Entry
	for i := 0; i < 20; i++ {
		p := geom.Pt2(0.1+rng.Float64()*0.05, 0.1+rng.Float64()*0.05)
		entries = append(entries, node.Entry{Rect: geom.PointRect(p), Ref: uint64(i)})
	}
	for i := 20; i < 40; i++ {
		p := geom.Pt2(0.8+rng.Float64()*0.05, 0.8+rng.Float64()*0.05)
		entries = append(entries, node.Entry{Rect: geom.PointRect(p), Ref: uint64(i)})
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	TGS{}.Order(entries, 20, 0)
	a, p := leafMBRStats(entries, 20)
	_ = p
	// Two tiny cluster MBRs: total area well under a mixed split.
	if a > 0.01 {
		t.Fatalf("TGS split mixed the clusters: leaf area %g", a)
	}
	for i := 0; i < 20; i++ {
		if (entries[i].Ref < 20) != (entries[0].Ref < 20) {
			t.Fatal("first node mixes both clusters")
		}
	}
}

func TestTGSQualityCompetitiveWithSTR(t *testing.T) {
	// On uniform data TGS should be in STR's league on leaf area (both
	// produce tilings); TGS is greedier and usually a bit tighter on
	// skewed data.
	base := uniformSquares(5000, 25)
	const n = 100
	str := append([]node.Entry(nil), base...)
	STR{}.Order(str, n, 0)
	strArea, _ := leafMBRStats(str, n)

	tgs := append([]node.Entry(nil), base...)
	TGS{}.Order(tgs, n, 0)
	tgsArea, _ := leafMBRStats(tgs, n)

	if tgsArea > strArea*1.25 {
		t.Fatalf("TGS leaf area %.4f much worse than STR %.4f", tgsArea, strArea)
	}
}

func TestTGSFullNodesExceptLast(t *testing.T) {
	// Node-aligned cuts guarantee every chunk of n is one TGS group, so
	// utilization stays at packing level: verify group boundaries never
	// split below n except once at the very end.
	entries := uniformSquares(1037, 26)
	const n = 50
	TGS{}.Order(entries, n, 0)
	// Nothing to verify structurally beyond the permutation (the builder
	// chunks consecutively), but the count of full nodes is fixed:
	full := len(entries) / n
	area, _ := leafMBRStats(entries, n)
	if area <= 0 {
		t.Fatal("degenerate packing")
	}
	if full != 20 {
		t.Fatalf("unexpected arithmetic: %d full nodes", full)
	}
}

func BenchmarkTGSOrder20k(b *testing.B) {
	base := uniformSquares(20000, 28)
	work := make([]node.Entry, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		TGS{}.Order(work, 100, 0)
	}
}
