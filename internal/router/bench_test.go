package router

import (
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

// BenchmarkRoutedRoundTrip is the serving path end to end as a Go
// benchmark: one client -> router -> 3 STR shards of uniform squares,
// all in-process over loopback, one request at a time. fan1 requests
// reach one shard and never leave the router connection's goroutine (the
// shard's parsed answer is the router's, fan1/batch a 16-window batch);
// fan3 starts two goroutines beside it. Each case reports its items/op. check.sh runs one iteration,
// nightly.yml times it. Read its allocs/op; its µs/op is one closed-loop
// client, whose round trip depends on whether a runtime thread happens
// to be spinning when each reply lands (two modes, 2x apart, on a 2-core
// box). The measurement of record for latency is bench/'s serve workload
// (open loop, phase B), where threads are parked between requests.
func BenchmarkRoutedRoundTrip(b *testing.B) {
	topo, err := buildTopology(testItems(30_000, 7), 3)
	if err != nil {
		b.Fatal(err)
	}
	defer topo.close()

	// A window in the middle of shard 0's slab: one target, ~30 hits.
	mbr := topo.m.Shards[0].MBR.Rect()
	cx, cy := (mbr.Min[0]+mbr.Max[0])/2, (mbr.Min[1]+mbr.Max[1])/2
	inside := geom.R2(cx-0.016, cy-0.016, cx+0.016, cy+0.016)
	if got := topo.m.OverlapRect(inside); len(got) != 1 {
		b.Fatalf("the one-shard window overlaps shards %v", got)
	}
	// Sixteen windows, each the size of the bench/ serve tape's batch
	// windows (≈ 120 hits at this density), on a 4 × 4 grid inside the same
	// slab: the batch reaches one shard.
	windows := make([]geom.Rect, 16)
	for i := range windows {
		x := mbr.Min[0] + (mbr.Max[0]-mbr.Min[0])*(0.2+0.2*float64(i%4))
		y := mbr.Min[1] + (mbr.Max[1]-mbr.Min[1])*(0.2+0.2*float64(i/4))
		windows[i] = geom.R2(x-0.032, y-0.032, x+0.032, y+0.032)
	}
	if got := topo.m.OverlapRect(geom.MBR(windows)); len(got) != 1 {
		b.Fatalf("the batch overlaps shards %v", got)
	}
	for _, bc := range []struct {
		name string
		req  wire.Request
	}{
		{"fan1/count", wire.Request{Op: wire.OpCount, Query: inside}},
		{"fan1/search", wire.Request{Op: wire.OpSearch, Query: inside}},
		{"fan1/batch", wire.Request{Op: wire.OpBatch, Batch: windows}},
		{"fan3/nearest", wire.Request{Op: wire.OpNearest, Point: geom.Pt2(0.5, 0.5), K: 10}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			items := 0
			start := time.Now()
			for i := 0; i < b.N; i++ {
				resp, err := topo.client.Do(&bc.req)
				if err != nil || resp.Status != wire.StatusOK {
					b.Fatalf("%+v, %v", resp, err)
				}
				items += len(resp.Items) + len(resp.Neighbors)
				for _, l := range resp.Batch {
					items += len(l)
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N), "µs/op")
			b.ReportMetric(float64(items)/float64(b.N), "items/op")
		})
	}
}
