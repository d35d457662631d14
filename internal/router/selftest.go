package router

// Selftest is the router's in-process proof: it builds one dataset, packs
// it twice — once into a single unsharded tree, once STR-partitioned
// across N in-process strserve backends behind a router — and asserts
// three properties end to end:
//
//  1. Identity: through the router, every query op answers exactly what
//     the unsharded tree answers (searches compared as ID sets, kNN as
//     (distance, ID) sequences, counts exactly).
//  2. Pruning: per-backend request counters match the shard-MBR overlap
//     prediction — narrow queries really do skip non-overlapping shards.
//  3. Failure: killing one backend makes queries needing its shard answer
//     StatusUnavailable within the deadline (never a hang), the backend's
//     ejection shows up in the router's counters, and the rest of the
//     dataset keeps answering.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
	"strtree/internal/server/wire"
)

// SelftestConfig tunes the in-process topology behind
// `strrouter -selftest`.
type SelftestConfig struct {
	// Shards is the backend count; 0 means 3.
	Shards int
	// Size is the dataset's item count; 0 means 6000.
	Size int
	// Queries is the number of window/point/kNN probes; 0 means 60.
	Queries int
	// Seed fixes data and workload generation.
	Seed int64
	// AdminAddr, when non-empty, binds the router's admin endpoint there
	// and extends the selftest into the admin smoke test strserve's
	// selftest runs (server.AdminSmoke): /healthz 200 then 503 through the
	// drain, one /metrics request series per backend, a non-zero ejection
	// counter after the kill, and the upper-bound wrapper on /stats.
	AdminAddr string
}

func (c SelftestConfig) withDefaults() SelftestConfig {
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Size <= 0 {
		c.Size = 6000
	}
	if c.Queries <= 0 {
		c.Queries = 60
	}
	return c
}

// selftestItems generates n uniformly placed squares in the unit square
// sized for ~5% total coverage — the same UNIFORM shape the server
// selftest uses, regenerated here because continuous coordinates make
// distance ties (the one source of kNN merge ambiguity) measure zero.
func selftestItems(n int, seed int64) []strtree.Item {
	rng := rand.New(rand.NewSource(seed))
	side := 0.0
	if n > 0 {
		side = math.Sqrt(0.05 / float64(n))
	}
	items := make([]strtree.Item, n)
	for i := range items {
		x := rng.Float64() * (1 - side)
		y := rng.Float64() * (1 - side)
		items[i] = strtree.Item{
			Rect: geom.Rect{Min: geom.Pt2(x, y), Max: geom.Pt2(x+side, y+side)},
			ID:   uint64(i),
		}
	}
	return items
}

// partitionItems runs the STR shard partition over public items, the
// same entry conversion strload's -shards path performs.
func partitionItems(items []strtree.Item, shards int) (*shardmap.Map, [][]node.Entry, error) {
	entries := make([]node.Entry, len(items))
	for i, it := range items {
		entries[i] = node.Entry{Rect: it.Rect, Ref: uint64(i)}
	}
	return shardmap.Partition(entries, shards, 0)
}

// selftestTopology is the in-process cluster the selftest drives.
type selftestTopology struct {
	m        *shardmap.Map
	backends []*server.Server
	trees    []*strtree.Tree
	router   *Router
	client   *server.Client
	addr     string
}

// buildTopology partitions items across cfg.Shards in-process strserve
// backends on loopback listeners and fronts them with a router.
func buildTopology(items []strtree.Item, shards int, logf func(string, ...any)) (*selftestTopology, error) {
	m, parts, err := partitionItems(items, shards)
	if err != nil {
		return nil, err
	}
	t := &selftestTopology{m: m}
	for i, part := range parts {
		sub := make([]strtree.Item, len(part))
		for j, e := range part {
			sub[j] = items[e.Ref]
		}
		tree, err := strtree.New(strtree.Options{BufferPages: 128})
		if err != nil {
			t.close()
			return nil, err
		}
		t.trees = append(t.trees, tree)
		if err := tree.BulkLoad(sub, strtree.PackSTR); err != nil {
			t.close()
			return nil, err
		}
		srv := server.New(tree, server.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, err
		}
		//strlint:ignore waitpair Shutdown signals completion by unblocking Serve; the exit error is advisory here
		go func() { _ = srv.Serve(ln) }()
		t.backends = append(t.backends, srv)
		m.Shards[i].Addrs = []string{ln.Addr().String()}
	}
	rt, err := New(Config{
		Map: m,
		// Aggressive health knobs so the kill sequence converges inside a
		// test budget: one failure ejects, probes every 200ms.
		FailureThreshold: 1,
		ProbeInterval:    200 * time.Millisecond,
		DialTimeout:      time.Second,
		IOTimeout:        5 * time.Second,
		Logf:             logf,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	//strlint:ignore waitpair Shutdown signals completion by unblocking Serve; the exit error is advisory here
	go func() { _ = rt.Serve(ln) }()
	t.addr = ln.Addr().String()
	t.client = server.Dial(t.addr)
	return t, nil
}

// close tears the topology down, tolerating partially built state.
func (t *selftestTopology) close() {
	if t.client != nil {
		_ = t.client.Close()
	}
	//strlint:ignore ctxprop teardown of a self-contained harness; the drain deadline is the root
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if t.router != nil {
		_ = t.router.Shutdown(ctx)
	}
	for _, b := range t.backends {
		_ = b.Shutdown(ctx)
	}
	for _, tr := range t.trees {
		_ = tr.Close()
	}
}

// itemIDs canonicalizes a search result for comparison: sorted object
// IDs (rectangles are determined by the ID; order differs legitimately
// between tree traversal and shard concatenation).
func itemIDs(items []wire.Item) []uint64 {
	ids := make([]uint64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Selftest runs the identity, pruning and failure proofs, writing a
// report to w. Any divergence fails it.
func Selftest(w io.Writer, cfg SelftestConfig) error {
	cfg = cfg.withDefaults()
	items := selftestItems(cfg.Size, cfg.Seed)

	// The unsharded reference: one tree with everything.
	ref, err := strtree.New(strtree.Options{BufferPages: 256})
	if err != nil {
		return err
	}
	defer func() { _ = ref.Close() }()
	if err := ref.BulkLoad(items, strtree.PackSTR); err != nil {
		return err
	}

	topo, err := buildTopology(items, cfg.Shards, nil)
	if err != nil {
		return err
	}
	defer topo.close()

	err = server.AdminSmoke(w, topo.router, cfg.AdminAddr, []server.SeriesExpect{
		{Name: "strrouter_backend_requests_total", Type: "counter", Samples: len(topo.router.backends)},
		{Name: "strrouter_backend_ejections_total", Type: "counter", NonZero: true},
	}, `{"percentiles":"upper-bound","families":[`, func() error { return prove(w, cfg, ref, topo) })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  drain: router shut down cleanly\n")
	return nil
}

// prove is the selftest's body: the identity, pruning and failure proofs
// against a serving topology.
func prove(w io.Writer, cfg SelftestConfig, ref *strtree.Tree, topo *selftestTopology) error {
	// ------------------------------------------------ identity + pruning
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	expected := make([]uint64, len(topo.router.backends)) // predicted per-backend requests
	narrow := 0                                           // queries that skipped at least one shard
	cl := topo.client
	for q := 0; q < cfg.Queries; q++ {
		// A 1%-area window somewhere in the unit square.
		const ext = 0.1
		x := rng.Float64() * (1 - ext)
		y := rng.Float64() * (1 - ext)
		win := geom.R2(x, y, x+ext, y+ext)
		pt := geom.Pt2(rng.Float64(), rng.Float64())
		k := 1 + rng.Intn(10)

		// Predict the fan-out from the shard map, as the router will.
		hit := topo.m.OverlapRect(win)
		for _, id := range hit {
			expected[id] += 2 // search + count below
		}
		if len(hit) < cfg.Shards {
			narrow++
		}
		for _, id := range topo.m.OverlapPoint(pt) {
			expected[id]++
		}
		for _, id := range topo.m.All() {
			expected[id]++ // nearest broadcasts
		}

		// OpSearch
		got, err := cl.Search(win)
		if err != nil {
			return fmt.Errorf("selftest: search %d: %w", q, err)
		}
		var want []wire.Item
		if err := ref.Search(win, func(it strtree.Item) bool {
			want = append(want, wire.Item{Rect: it.Rect, ID: it.ID})
			return true
		}); err != nil {
			return fmt.Errorf("selftest: reference search %d: %w", q, err)
		}
		if !sameIDs(itemIDs(got), itemIDs(want)) {
			return fmt.Errorf("selftest: search %d: sharded %d items, unsharded %d items or IDs differ", q, len(got), len(want))
		}

		// OpCount
		n, err := cl.Count(win)
		if err != nil {
			return fmt.Errorf("selftest: count %d: %w", q, err)
		}
		if n != uint64(len(want)) {
			return fmt.Errorf("selftest: count %d: sharded %d, unsharded %d", q, n, len(want))
		}

		// OpSearchPoint
		gotPt, err := cl.SearchPoint(pt)
		if err != nil {
			return fmt.Errorf("selftest: searchpoint %d: %w", q, err)
		}
		var wantPt []wire.Item
		if err := ref.SearchPoint(pt, func(it strtree.Item) bool {
			wantPt = append(wantPt, wire.Item{Rect: it.Rect, ID: it.ID})
			return true
		}); err != nil {
			return fmt.Errorf("selftest: reference searchpoint %d: %w", q, err)
		}
		if !sameIDs(itemIDs(gotPt), itemIDs(wantPt)) {
			return fmt.Errorf("selftest: searchpoint %d: results differ", q)
		}

		// OpNearest: exact sequence match on (distance, ID).
		gotNb, err := cl.Nearest(pt, k)
		if err != nil {
			return fmt.Errorf("selftest: nearest %d: %w", q, err)
		}
		wantItems, wantDists, err := ref.NearestK(pt, k)
		if err != nil {
			return fmt.Errorf("selftest: reference nearest %d: %w", q, err)
		}
		if len(gotNb) != len(wantItems) {
			return fmt.Errorf("selftest: nearest %d: sharded %d neighbors, unsharded %d", q, len(gotNb), len(wantItems))
		}
		for i := range gotNb {
			//strlint:ignore floateq the merge promises bit-identical distances to the unsharded tree; tolerance would mask drift
			if gotNb[i].Item.ID != wantItems[i].ID || gotNb[i].Dist != wantDists[i] {
				return fmt.Errorf("selftest: nearest %d[%d]: sharded (%d, %g), unsharded (%d, %g)",
					q, i, gotNb[i].Item.ID, gotNb[i].Dist, wantItems[i].ID, wantDists[i])
			}
		}
	}

	// OpBatch: one batch of windows, compared per query.
	batch := make([]geom.Rect, 8)
	for i := range batch {
		x := rng.Float64() * 0.9
		y := rng.Float64() * 0.9
		batch[i] = geom.R2(x, y, x+0.1, y+0.1)
	}
	batchHit := map[int]bool{}
	for _, q := range batch {
		for _, id := range topo.m.OverlapRect(q) {
			batchHit[id] = true
		}
	}
	for id := range batchHit {
		expected[id]++
	}
	gotBatch, err := cl.Batch(batch)
	if err != nil {
		return fmt.Errorf("selftest: batch: %w", err)
	}
	for i, q := range batch {
		var want []wire.Item
		if err := ref.Search(q, func(it strtree.Item) bool {
			want = append(want, wire.Item{Rect: it.Rect, ID: it.ID})
			return true
		}); err != nil {
			return fmt.Errorf("selftest: reference batch search %d: %w", i, err)
		}
		if !sameIDs(itemIDs(gotBatch[i]), itemIDs(want)) {
			return fmt.Errorf("selftest: batch[%d]: results differ", i)
		}
	}

	// OpStats: a cluster aggregate, not comparable to the reference tree;
	// assert it fans out to every backend and sums to sane figures.
	for _, id := range topo.m.All() {
		expected[id]++
	}
	st, err := cl.Stats()
	if err != nil {
		return fmt.Errorf("selftest: stats: %w", err)
	}
	if st.Completed == 0 || st.LogicalReads == 0 {
		return fmt.Errorf("selftest: stats: aggregate reports no work (completed=%d logical=%d)", st.Completed, st.LogicalReads)
	}

	// Pruning: actual per-backend round trips must equal the MBR-overlap
	// prediction — no shard was asked anything the map could prove empty.
	if narrow == 0 {
		return fmt.Errorf("selftest: no window query skipped a shard; dataset/shard geometry gives pruning nothing to prove")
	}
	bs := topo.router.BackendStats()
	for i, b := range bs {
		if b.Requests != expected[i] {
			return fmt.Errorf("selftest: pruning: backend %d (%s) saw %d requests, shard-MBR prediction is %d",
				i, b.Addr, b.Requests, expected[i])
		}
		if b.Errors != 0 || b.Retries != 0 || b.Ejections != 0 {
			return fmt.Errorf("selftest: backend %d unhealthy before kill: %+v", i, b)
		}
	}
	fmt.Fprintf(w, "selftest: %d items across %d shards, %d probes per op\n", cfg.Size, cfg.Shards, cfg.Queries)
	fmt.Fprintf(w, "  identity: search/count/searchpoint/nearest/batch answers match the unsharded tree\n")
	fmt.Fprintf(w, "  pruning: per-backend requests match shard-MBR prediction (%v); %d/%d windows skipped a shard\n",
		expected, narrow, cfg.Queries)

	// ------------------------------------------------------------ failure
	// Kill backend 0 hard: stop its server so its port refuses connections.
	//strlint:ignore ctxprop kill sequence of a self-contained harness
	killCtx, cancelKill := context.WithTimeout(context.Background(), 5*time.Second)
	err = topo.backends[0].Shutdown(killCtx)
	cancelKill()
	if err != nil {
		return fmt.Errorf("selftest: killing backend 0: %w", err)
	}

	// A window inside shard 0's MBR must now answer StatusUnavailable —
	// promptly, not by hanging until some transport timeout.
	mbr0 := topo.m.Shards[0].MBR.Rect()
	cx := (mbr0.Min[0] + mbr0.Max[0]) / 2
	cy := (mbr0.Min[1] + mbr0.Max[1]) / 2
	dead := geom.R2(cx, cy, cx+1e-6, cy+1e-6)
	t0 := time.Now()
	_, err = cl.Count(dead)
	elapsed := time.Since(t0)
	if !errors.Is(err, server.ErrUnavailable) {
		return fmt.Errorf("selftest: query into killed shard: got %v, want ErrUnavailable", err)
	}
	if elapsed > 3*time.Second {
		return fmt.Errorf("selftest: unavailable answer took %v; must fail fast, not hang", elapsed)
	}

	// The failure must show in the health counters, and the untouched
	// shards must keep answering.
	bs = topo.router.BackendStats()
	if bs[0].Ejections == 0 {
		return fmt.Errorf("selftest: backend 0 not ejected after kill: %+v", bs[0])
	}
	last := topo.m.Shards[cfg.Shards-1].MBR.Rect()
	lx := (last.Min[0] + last.Max[0]) / 2
	ly := (last.Min[1] + last.Max[1]) / 2
	if _, err := cl.Count(geom.R2(lx, ly, lx+1e-6, ly+1e-6)); err != nil {
		return fmt.Errorf("selftest: healthy shard stopped answering after unrelated kill: %w", err)
	}
	fmt.Fprintf(w, "  failure: killed backend 0 -> StatusUnavailable in %v, ejections=%d, healthy shards still serving\n",
		elapsed.Round(time.Millisecond), bs[0].Ejections)

	return nil
}
