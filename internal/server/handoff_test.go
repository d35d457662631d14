package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strtree"
	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

// This file holds the serving path to its hand-off rule — a message is
// one Write, a parsed message's rectangles share one slab, a round trip
// ends when its context does — where the rule could hurt: readers that
// must not depend on it, responses too large for it, callers that share a
// request, and peers that answer late or not at all.

// gridTree packs side*side unit-spaced points, ID = y*side + x: a window
// [0, w-1]^2 matches exactly w*w of them.
func gridTree(t testing.TB, side int) *strtree.Tree {
	t.Helper()
	items := make([]strtree.Item, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			p := geom.Pt2(float64(x), float64(y))
			items = append(items, strtree.Item{Rect: geom.Rect{Min: p, Max: p}, ID: uint64(y*side + x)})
		}
	}
	tree, err := strtree.New(strtree.Options{BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(items, strtree.PackSTR); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tree.Close() })
	return tree
}

// window matches w*w points of a gridTree.
func window(w int) geom.Rect { return geom.R2(0, 0, float64(w-1), float64(w-1)) }

// TestResponseTooLarge: an answer that does not fit a frame is refused
// in-band, naming the limit and the item count, on a connection that
// stays usable; it is logged once and counted failed, not completed.
func TestResponseTooLarge(t *testing.T) {
	const n = 450_000 // 41 bytes an item: 18 MB
	huge := make([]wire.Item, n)
	for i := range huge {
		huge[i] = wire.Item{Rect: unit, ID: uint64(i)}
	}
	logs := &logBuf{}
	f, addr := startFrame(t, FrameConfig{Logf: logs.logf}, func(_ context.Context, req *wire.Request) *wire.Response {
		if req.Op == wire.OpSearch {
			return &wire.Response{Status: wire.StatusOK, Op: req.Op, Items: huge}
		}
		return answer(req)
	})
	cl := dial(t, addr)
	cl.SetTransportTimeouts(time.Second, 10*time.Second)
	if _, err := cl.Count(unit); err != nil { // establishes the connection
		t.Fatal(err)
	}
	connOf := func() net.Conn {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return cl.conn
	}
	conn := connOf()

	_, err := cl.Search(unit)
	if err == nil {
		t.Fatal("an 18 MB response was delivered")
	}
	for _, want := range []string{"450000 items", "16777216 bytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("client error %q does not name %q", err, want)
		}
	}
	if n, err := cl.Count(unit); err != nil || n != 7 {
		t.Fatalf("follow-up on the same client = %d, %v; want 7, nil", n, err)
	}
	if connOf() != conn {
		t.Error("the refusal cost the client its connection")
	}
	waitFor(t, "the slot to be released", func() bool { return f.inFlight.Load() == 0 })
	if c, x := f.completed.Load(), f.failed.Load(); c != 2 || x != 1 {
		t.Errorf("completed/failed = %d/%d, want 2/1", c, x)
	}
	if got := logs.all(); len(got) != 1 || !logs.contains("search request failed: response of 450000 items") {
		t.Errorf("log = %q, want one line naming the refusal", got)
	}
}

// TestDoLeavesRequestUntouched: the client's default timeout goes on the
// wire, not into the caller's request — which may be sent again under
// another default, or through another client at the same moment.
func TestDoLeavesRequestUntouched(t *testing.T) {
	var seen sync.Map // request ID -> TimeoutMillis the server parsed
	_, addr := startFrame(t, FrameConfig{}, func(_ context.Context, req *wire.Request) *wire.Response {
		seen.Store(req.ID, req.TimeoutMillis)
		return answer(req)
	})
	sent := func(id uint64) uint32 {
		v, ok := seen.Load(id)
		if !ok {
			t.Fatalf("request %d never arrived", id)
		}
		return v.(uint32)
	}
	cl := dial(t, addr)
	req := &wire.Request{Op: wire.OpInsert, Query: geom.R2(0, 0, 1, 1), ID: 1}
	before := *req

	cl.SetRequestTimeout(250 * time.Millisecond)
	if _, err := cl.Do(req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*req, before) {
		t.Fatalf("Do changed its argument: %+v, was %+v", *req, before)
	}
	if got := sent(1); got != 250 {
		t.Fatalf("server saw a %d ms deadline, want the client's default 250", got)
	}
	cl.SetRequestTimeout(300 * time.Microsecond) // rounds up to the smallest deadline, not down to "none"
	req.ID, before.ID = 2, 2
	if _, err := cl.DoContext(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*req, before) {
		t.Fatalf("DoContext changed its argument: %+v, was %+v", *req, before)
	}
	if got := sent(2); got != 1 {
		t.Fatalf("server saw a %d ms deadline, want 1", got)
	}
	cl.SetRequestTimeout(0)
	req.ID, before.ID = 3, 3
	if _, err := cl.Do(req); err != nil {
		t.Fatal(err)
	}
	if got := sent(3); got != 0 {
		t.Fatalf("a reused request carried a stale %d ms deadline", got)
	}

	// One request value, two clients with defaults of their own, at once:
	// clean under -race only if neither writes it.
	shared := &wire.Request{Op: wire.OpCount, Query: unit}
	var wg sync.WaitGroup
	for i, d := range []time.Duration{time.Second, 2 * time.Second} {
		c := dial(t, addr)
		c.SetRequestTimeout(d)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, err := c.Do(shared); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if shared.TimeoutMillis != 0 {
		t.Fatalf("shared request's deadline = %d", shared.TimeoutMillis)
	}
}

// mallocsPer is the process-wide allocation count of one call of fn,
// averaged over runs — both ends of a loopback round trip, as the
// ledger's server.allocs_per_req counts them.
func mallocsPer(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestRoundTripAllocs is the serving path's allocation gate: a client ->
// shard Search costs a fixed small number of allocations across both
// processes' roles, growing with the slab's chunks and the doubling of
// two item slices, not with the hits.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, addr := startServer(t, gridTree(t, 40), Config{})
	cl := dial(t, addr)
	search := func(w int) float64 {
		req := &wire.Request{Op: wire.OpSearch, Query: window(w)}
		return mallocsPer(200, func() {
			resp, err := cl.Do(req)
			if err != nil || len(resp.Items) != w*w {
				t.Fatalf("search: %d items, %v; want %d", len(resp.Items), err, w*w)
			}
		})
	}
	small, large := search(10), search(20)
	t.Logf("loopback Search: %.1f mallocs at 100 hits, %.1f at 400", small, large)
	if small > 32 { // measured: 25.1
		t.Errorf("Search with 100 hits = %.1f mallocs a round trip, want <= 32", small)
	}
	if large > small+8 { // measured: 3.9 more
		t.Errorf("Search with 400 hits = %.1f mallocs, %.1f with 100: want <= 8 more", large, small)
	}
}

// checkOwnCorners fails unless every rectangle's corners have cap == len
// and survive an append to each of their neighbours.
func checkOwnCorners(t *testing.T, what string, items []wire.Item) {
	t.Helper()
	want := make([]geom.Rect, len(items))
	for i, it := range items {
		if cap(it.Rect.Min) != len(it.Rect.Min) || cap(it.Rect.Max) != len(it.Rect.Max) {
			t.Fatalf("%s item %d: cap(Min) %d, cap(Max) %d at %d dims", what, i, cap(it.Rect.Min), cap(it.Rect.Max), len(it.Rect.Min))
		}
		want[i] = it.Rect.Clone()
	}
	for _, it := range items {
		_ = append(it.Rect.Min, -1)
		_ = append(it.Rect.Max, -1)
	}
	for i, it := range items {
		if !it.Rect.Equal(want[i]) {
			t.Fatalf("%s item %d changed when its neighbours were appended to", what, i)
		}
	}
}

// TestSharedSlabHygiene: the rectangles of one response share storage on
// the shard and again in the client, and nobody can tell — not by
// appending to a corner, not by keeping a result across the next request
// on the same connection.
func TestSharedSlabHygiene(t *testing.T) {
	srv, addr := startServer(t, gridTree(t, 40), Config{})
	for _, req := range []*wire.Request{
		{Op: wire.OpSearch, Query: window(20)},
		{Op: wire.OpSearchPoint, Point: geom.Pt2(3, 4)},
		{Op: wire.OpBatch, Batch: []geom.Rect{window(12), window(3)}},
	} {
		resp, err := srv.execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		items := resp.Items
		for _, b := range resp.Batch {
			items = append(items, b...)
		}
		if len(items) == 0 {
			t.Fatalf("%v matched nothing", req.Op)
		}
		checkOwnCorners(t, "shard "+req.Op.String(), items)
	}

	cl := dial(t, addr)
	first, err := cl.Search(window(20))
	if err != nil {
		t.Fatal(err)
	}
	checkOwnCorners(t, "client", first)
	kept, err := wire.AppendResponse(nil, &wire.Response{Op: wire.OpSearch, Items: first})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(geom.R2(20, 20, 39, 39)); err != nil { // reuses both frame buffers
		t.Fatal(err)
	}
	again, err := wire.AppendResponse(nil, &wire.Response{Op: wire.OpSearch, Items: first})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, again) {
		t.Fatal("a result changed when the next request reused the connection's buffers")
	}
}

// dribble is a connection whose Write hands the peer one byte at a time.
type dribble struct{ net.Conn }

func (d dribble) Write(p []byte) (int, error) {
	for i := range p {
		if _, err := d.Conn.Write(p[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// dribbleListener serves connections that write through dribble.
type dribbleListener struct{ net.Listener }

func (l dribbleListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return dribble{c}, nil
}

// TestReadersAcceptAnySegmentation: writers put a frame on the socket in
// one Write, and no reader relies on it. A request that arrives a byte at
// a time, or as a header and — after a pause — its payload, is answered;
// a response that arrives a byte at a time is parsed.
func TestReadersAcceptAnySegmentation(t *testing.T) {
	tree := gridTree(t, 20)
	srv := New(tree, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(dribbleListener{ln}) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := ln.Addr().String()

	// The response of 100 items comes back in some 4 000 one-byte segments.
	cl := dial(t, addr)
	items, err := cl.Search(window(10))
	if err != nil || len(items) != 100 {
		t.Fatalf("search through a dribbling server = %d items, %v; want 100", len(items), err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	frame, err := wire.AppendRequest(wire.BeginFrame(nil), &wire.Request{Op: wire.OpCount, Query: window(10)})
	if err == nil {
		frame, err = wire.EndFrame(frame)
	}
	if err != nil {
		t.Fatal(err)
	}
	count := func() uint64 {
		t.Helper()
		payload, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ParseResponse(payload)
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("answer: %+v, %v", resp, err)
		}
		return resp.Count
	}
	if _, err := (dribble{conn}).Write(frame); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 100 {
		t.Fatalf("request sent a byte at a time: count %d, want 100", n)
	}
	if _, err := conn.Write(frame[:4]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the reader parks on the bare header
	if _, err := conn.Write(frame[4:]); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 100 {
		t.Fatalf("request sent as header, pause, payload: count %d, want 100", n)
	}
}

// TestDoContextInterruption: a round trip ends when its context does,
// whatever the transport timeout; the connection it was on is not used
// again, so an answer that arrives late cannot be taken for the next
// request's; and a context that ends as the answer arrives loses the
// connection but not the answer.
func TestDoContextInterruption(t *testing.T) {
	var calls atomic.Int32
	late := make(chan struct{})
	_, addr := startFrame(t, FrameConfig{}, func(_ context.Context, req *wire.Request) *wire.Response {
		n := calls.Add(1)
		if n == 1 {
			<-late // answers only after the client has given up
		}
		return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: uint64(n)}
	})
	cl := dial(t, addr)
	cl.SetTransportTimeouts(time.Second, 30*time.Second)
	req := &wire.Request{Op: wire.OpCount, Query: unit}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.DoContext(ctx, req)
	if took := time.Since(start); took > 150*time.Millisecond {
		t.Errorf("interrupted round trip took %v at a 100 ms deadline", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted round trip: %v, want one wrapping DeadlineExceeded", err)
	}
	close(late) // the first answer goes out now, to a connection nobody reads

	resp, err := cl.Do(req)
	if err != nil {
		t.Fatalf("request after an interruption: %v", err)
	}
	if resp.Count != 2 {
		t.Fatalf("request after an interruption was answered %d: the late reply to the one before it", resp.Count)
	}

	// Cancelled before the call: nothing useful can happen, and the
	// client is still good afterwards.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := cl.DoContext(dead, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("round trip under a cancelled context: %v", err)
	}
	if resp, err := cl.DoContext(context.Background(), req); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("request after a cancelled one: %+v, %v", resp, err)
	}

	// A live context arms and disarms without a trace: the connection is
	// reused across requests.
	live, stop := context.WithTimeout(context.Background(), time.Minute)
	defer stop()
	cl.mu.Lock()
	conn := cl.conn
	cl.mu.Unlock()
	for i := 0; i < 20; i++ {
		if _, err := cl.DoContext(live, req); err != nil {
			t.Fatal(err)
		}
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.conn != conn {
		t.Fatal("requests under a live context cost the client its connection")
	}
}
