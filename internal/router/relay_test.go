package router

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/server"
	"strtree/internal/server/wire"
)

// relayed is the payload the router answered req with, byte for byte: a
// Relay client keeps a search, point or batch answer as it arrived.
func relayed(t *testing.T, cl *server.Client, req *wire.Request) []byte {
	t.Helper()
	resp, err := cl.Relay(context.Background(), req)
	if err != nil || resp.Status != wire.StatusOK || !resp.Scanned() {
		t.Fatalf("%v: %+v, %v", req.Op, resp, err)
	}
	b, err := wire.AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRoutedAnswersByteIdentical: what the router sends for a search, a
// point search and a batch is what parsing each target shard's answer,
// concatenating the items list by list in shard-manifest order and
// encoding the result writes — the router's merge before it joined bytes.
func TestRoutedAnswersByteIdentical(t *testing.T) {
	topo, err := buildTopology(testItems(8000, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	direct := make([]*server.Client, len(topo.m.Shards))
	for i, s := range topo.m.Shards {
		direct[i] = server.Dial(s.Addrs[0])
		defer direct[i].Close()
	}
	routed := server.Dial(topo.addr)
	defer routed.Close()

	reference := func(req *wire.Request, targets []int) []byte {
		out := &wire.Response{Status: wire.StatusOK, Op: req.Op, Batch: make([][]wire.Item, len(req.Batch))}
		for _, s := range targets {
			resp := ask(t, direct[s], *req)
			out.Items = append(out.Items, resp.Items...)
			for i := range resp.Batch {
				out.Batch[i] = append(out.Batch[i], resp.Batch[i]...)
			}
		}
		b, err := wire.AppendResponse(nil, out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rng := rand.New(rand.NewSource(5))
	fans := map[int]int{}
	for q := 0; q < 40; q++ {
		x, y, side := rng.Float64()*0.7, rng.Float64()*0.7, 0.05+rng.Float64()*0.25
		win := geom.R2(x, y, x+side, y+side)
		batch := make([]geom.Rect, 1+rng.Intn(8))
		for i := range batch {
			bx, by := rng.Float64()*0.9, rng.Float64()*0.9
			batch[i] = geom.R2(bx, by, bx+0.1, by+0.1)
		}
		for _, req := range []*wire.Request{
			{Op: wire.OpSearch, Query: win},
			{Op: wire.OpSearchPoint, Point: geom.Pt2(x, y)},
			{Op: wire.OpBatch, Batch: batch},
		} {
			targets := topo.router.targetsFor(req)
			fans[len(targets)]++
			if len(targets) == 0 {
				continue
			}
			if got, want := relayed(t, routed, req), reference(req, targets); !bytes.Equal(got, want) {
				t.Fatalf("%v %d over shards %v: the router sent %d bytes, the parsed merge writes %d, or they differ",
					req.Op, q, targets, len(got), len(want))
			}
		}
	}
	if fans[1] == 0 || fans[3] == 0 {
		t.Fatalf("fan-out widths %v: the requests must reach one shard and all three", fans)
	}
}

// TestConcurrentRelaysShareNoBytes: a scanned answer owns the frame it
// arrived in. Concurrent batches through a router with one pooled client
// per backend each come back as they do one at a time; an answer that
// still shared the client's read buffer would be overwritten by the next
// request's reply before the router wrote it out (and -race would see the
// two goroutines touch the buffer).
func TestConcurrentRelaysShareNoBytes(t *testing.T) {
	topo, err := buildTopology(testItems(8000, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	rt, err := New(Config{Map: topo.m, BackendConcurrency: 1, IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- rt.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		<-served
	}()

	rng := rand.New(rand.NewSource(9))
	reqs := make([]*wire.Request, 8)
	want := make([][]byte, len(reqs))
	seq := server.Dial(ln.Addr().String())
	defer seq.Close()
	for i := range reqs {
		batch := make([]geom.Rect, 16)
		for j := range batch {
			x, y := rng.Float64()*0.9, rng.Float64()*0.9
			batch[j] = geom.R2(x, y, x+0.1, y+0.1)
		}
		reqs[i] = &wire.Request{Op: wire.OpBatch, Batch: batch}
		want[i] = relayed(t, seq, reqs[i])
	}

	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := server.Dial(ln.Addr().String())
			defer cl.Close()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(reqs)
				resp, err := cl.Relay(context.Background(), reqs[i])
				if err == nil && resp.Status != wire.StatusOK {
					err = fmt.Errorf("status %v: %s", resp.Status, resp.Err)
				}
				var got []byte
				if err == nil {
					got, err = wire.AppendResponse(nil, resp)
				}
				if err == nil && !bytes.Equal(got, want[i]) {
					err = fmt.Errorf("batch %d: %d bytes concurrently, %d alone, or they differ", i, len(got), len(want[i]))
				}
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
