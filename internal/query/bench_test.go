package query

import (
	"fmt"
	"testing"
)

// BenchmarkBatchRunCount measures the executor's per-batch overhead and
// allocation profile over a constant-work count function, at the worker
// counts the serving layer uses. RunCount is the alloc-sensitive variant:
// it returns one int per query, so everything else it allocates is
// executor overhead.
func BenchmarkBatchRunCount(b *testing.B) {
	items := grid(32)
	qs := Regions(256, 0.1, 3)
	for i := range qs {
		r := qs[i]
		for d := range r.Min {
			r.Min[d] *= 32
			r.Max[d] *= 32
		}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			ex := BatchExecutor{Count: countOf(bruteSearch(items)), Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.RunCount(qs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
