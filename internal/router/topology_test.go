package router

import (
	"context"
	"math"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/router/shardmap"
	"strtree/internal/server"
	"strtree/internal/server/wire"
)

// testItems generates n uniformly placed squares in the unit square sized
// for ~5% total coverage: continuous coordinates make distance ties (the
// one source of kNN merge ambiguity) measure zero.
func testItems(n int, seed int64) []strtree.Item {
	rng := rand.New(rand.NewSource(seed))
	side := 0.0
	if n > 0 {
		side = math.Sqrt(0.05 / float64(n))
	}
	items := make([]strtree.Item, n)
	for i := range items {
		x := rng.Float64() * (1 - side)
		y := rng.Float64() * (1 - side)
		items[i] = strtree.Item{Rect: geom.R2(x, y, x+side, y+side), ID: uint64(i)}
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

// topology is an in-process cluster: one strserve backend per shard on a
// loopback listener, a router in front of them and a client of the router.
type topology struct {
	m        *shardmap.Map
	backends []*server.Server
	trees    []*strtree.Tree
	router   *Router
	addr     string // the router's
	client   *server.Client
}

// buildTopology partitions items across shards backends and fronts them
// with a router whose health knobs converge inside a test budget: one
// failure ejects, probes every 200ms. It tears down what it built on
// failure.
func buildTopology(items []strtree.Item, shards int) (*topology, error) {
	m, parts, err := partitionItems(items, shards)
	if err != nil {
		return nil, err
	}
	t := &topology{m: m}
	serve := func(s interface{ Serve(net.Listener) error }) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		go func() { _ = s.Serve(ln) }()
		return ln.Addr().String(), nil
	}
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
		addr, err := serve(srv)
		if err != nil {
			t.close()
			return nil, err
		}
		t.backends = append(t.backends, srv)
		m.Shards[i].Addrs = []string{addr}
	}
	t.router, err = New(Config{
		Map:              m,
		FailureThreshold: 1,
		ProbeInterval:    200 * time.Millisecond,
		DialTimeout:      time.Second,
		IOTimeout:        5 * time.Second,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	addr, err := serve(t.router)
	if err != nil {
		t.close()
		return nil, err
	}
	t.addr = addr
	t.client = server.Dial(addr)
	return t, nil
}

// close tears the topology down, tolerating partially built state.
func (t *topology) close() {
	if t.client != nil {
		_ = t.client.Close()
	}
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

// ask sends req over cl and returns the answer, failing the test on a
// transport error or a status other than OK.
func ask(t *testing.T, cl *server.Client, req wire.Request) *wire.Response {
	t.Helper()
	resp, err := cl.Do(&req)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("%v: %v, answer %+v", req.Op, err, resp)
	}
	return resp
}

// itemIDs canonicalizes a search result for comparison: sorted object
// IDs (rectangles are determined by the ID; order differs legitimately
// between tree traversal and shard concatenation).
func itemIDs(items []wire.Item) []uint64 {
	ids := make([]uint64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	slices.Sort(ids)
	return ids
}

// refIDs is itemIDs for the unsharded reference tree's answer.
func refIDs(t *testing.T, ref *strtree.Tree, q geom.Rect) []uint64 {
	t.Helper()
	var ids []uint64
	if err := ref.Search(q, func(it strtree.Item) bool {
		ids = append(ids, it.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(ids)
	return ids
}
