package query

import (
	"fmt"
	"testing"

	"strtree/internal/geom"
)

// BenchmarkBatchRunCount measures Run's per-batch overhead and allocation
// profile over a constant-work count, at the worker counts the serving
// layer uses. Counting writes one preallocated int per query, so
// everything else it allocates is Run's overhead.
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
			var m ExecMetrics
			counts := make([]int, len(qs))
			count := func(_, i int, q geom.Rect) error {
				counts[i] = 0
				for _, r := range items {
					if q.Intersects(r) {
						counts[i]++
					}
				}
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Run(qs, workers, &m, count); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
