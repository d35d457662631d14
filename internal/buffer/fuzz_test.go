package buffer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"strtree/internal/storage"
)

// FuzzPoolLRU drives Pool and refPool, the map-and-pointer-list pool it
// replaced, with one byte-decoded call sequence over two identical
// FaultyPagers, at 1 and 4 shards, and requires after every call the same
// error, the same Stats, the same Len, the same LRU order in every shard
// (so the same eviction victims) and the same sequence of pager writes,
// and Pool's slots must balance: each slot handed out holds a page or is
// free, so a slot lost on an error path fails the call that lost it.
// Injected read and write failures ride along. At the end, with every pin
// released and the faults cleared, fetching every page must fill each
// shard to its capacity.
func FuzzPoolLRU(f *testing.F) {
	f.Add([]byte{7, 0, 3, 0, 5, 1, 3, 2, 9, 8, 4, 0, 4, 1, 6})
	f.Add([]byte{3, 9, 4, 0, 0, 5, 0, 0, 6, 0, 5, 7, 2, 2, 1, 0, 7, 9, 8})
	f.Add([]byte{1, 2, 40, 9, 40, 0, 40, 3, 0, 10, 0, 0, 41, 0, 42, 1, 0, 8, 0})
	f.Add([]byte{12, 4, 7, 0, 7, 1, 0, 3, 0, 4, 1, 10, 0, 0, 8, 5, 0, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := poolMatchesReference(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPoolMatchesReference runs FuzzPoolLRU's body on seeded random call
// sequences, so every go test covers what the fuzz target checks.
func TestPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		if err := poolMatchesReference(data); err != nil {
			t.Fatalf("sequence %d (% x): %v", i, data, err)
		}
	}
}

// fuzzPages is the number of pages each pager starts with; Adopt adds at
// most fuzzPages more.
const fuzzPages = 48

// twinPager is one side's pager: a FaultyPager over a MemPager, the page
// writes it has seen and its armed faults.
type twinPager struct {
	inner     *storage.MemPager
	fp        *storage.FaultyPager
	writes    []storage.PageID
	failRead  storage.PageID // while readArmed, the next read of this page fails
	readArmed bool
	failWrite bool // the next page written fails
}

func newTwinPager() *twinPager {
	tp := &twinPager{inner: storage.NewMemPager(64)}
	buf := make([]byte, 64)
	for i := 0; i < fuzzPages; i++ {
		id, _ := tp.inner.Alloc()
		buf[0], buf[1] = byte(i), 0xA5
		_ = tp.inner.WritePage(id, buf)
	}
	tp.fp = storage.NewFaultyPager(tp.inner)
	tp.fp.FailReads(func(id storage.PageID) error {
		if tp.readArmed && id == tp.failRead {
			tp.readArmed = false
			return errInjected
		}
		return nil
	})
	tp.fp.FailWrites(func(id storage.PageID) error {
		if tp.failWrite {
			tp.failWrite = false
			return errInjected
		}
		tp.writes = append(tp.writes, id)
		return nil
	})
	return tp
}

// pinPair is one pin held on both sides.
type pinPair struct {
	f *Frame
	r *refFrame
}

func poolMatchesReference(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	for _, shards := range []int{1, 4} {
		if err := runTwins(data, shards); err != nil {
			return fmt.Errorf("%d shards: %w", shards, err)
		}
	}
	return nil
}

func runTwins(data []byte, shards int) error {
	capacity := shards + int(data[0])%16
	pt, rt := newTwinPager(), newTwinPager()
	p, err := NewSharded(pt.fp, capacity, shards)
	if err != nil {
		return err
	}
	ref := newRefPool(rt.fp, capacity, shards)
	var reads, writes []pinPair
	pages := storage.PageID(fuzzPages)
	stamp := byte(0)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	next()
	for step := 0; len(data) > 0; step++ {
		op, arg := next()%11, next()
		var what string
		var perr, rerr error
		switch op {
		case 0, 1: // Fetch, twice as often as the rest
			id := storage.PageID(arg) % pages
			what = fmt.Sprintf("Fetch(%d)", id)
			var f *Frame
			var r *refFrame
			f, perr = p.Fetch(id)
			r, rerr = ref.Fetch(id)
			if perr == nil && rerr == nil {
				if !bytes.Equal(f.Data(), r.data) {
					return fmt.Errorf("step %d, %s: page bytes differ", step, what)
				}
				reads = append(reads, pinPair{f, r})
			}
		case 2: // Release
			if len(reads) == 0 {
				continue
			}
			k := int(arg) % len(reads)
			what = fmt.Sprintf("Release(%d)", reads[k].f.id)
			p.Release(reads[k].f)
			ref.Release(reads[k].r)
			reads = slices.Delete(reads, k, k+1)
		case 3: // FetchMut
			id := storage.PageID(arg) % pages
			what = fmt.Sprintf("FetchMut(%d)", id)
			var f *Frame
			var r *refFrame
			f, perr = p.FetchMut(id)
			r, rerr = ref.FetchMut(id)
			if perr == nil && rerr == nil {
				writes = append(writes, pinPair{f, r})
			}
		case 4: // ReleaseMut
			if len(writes) == 0 {
				continue
			}
			k := int(arg) % len(writes)
			what = fmt.Sprintf("ReleaseMut(%d)", writes[k].f.id)
			perr = p.ReleaseMut(writes[k].f)
			rerr = ref.ReleaseMut(writes[k].r)
			writes = slices.Delete(writes, k, k+1)
		case 5: // MarkDirty on any held pin, after a patch
			held := append(slices.Clone(reads), writes...)
			if len(held) == 0 {
				continue
			}
			h := held[int(arg)%len(held)]
			what = fmt.Sprintf("MarkDirty(%d)", h.f.id)
			stamp++
			h.f.Data()[0], h.r.data[0] = stamp, stamp
			h.f.MarkDirty()
			h.r.dirty = true
		case 6: // Adopt a freshly allocated page
			if pt.inner.NumPages() >= 2*fuzzPages {
				continue
			}
			id, _ := pt.inner.Alloc()
			if rid, _ := rt.inner.Alloc(); rid != id {
				return fmt.Errorf("step %d: pagers allocated %d and %d", step, id, rid)
			}
			pages = id + 1
			what = fmt.Sprintf("Adopt(%d)", id)
			var f *Frame
			var r *refFrame
			f, perr = p.Adopt(id)
			r, rerr = ref.Adopt(id)
			if perr == nil && rerr == nil {
				reads = append(reads, pinPair{f, r})
			}
		case 7: // WritePages: a run of one to four pages
			n := 1 + int(arg)%4
			first := storage.PageID(arg/4) % pages
			if first+storage.PageID(n) > pages {
				first = pages - storage.PageID(n)
			}
			what = fmt.Sprintf("WritePages(%d, %d pages)", first, n)
			stamp++
			run := bytes.Repeat([]byte{stamp}, n*64)
			perr = p.WritePages(first, run)
			rerr = ref.WritePages(first, run)
		case 8:
			what = "FlushAll"
			perr, rerr = p.FlushAll(), ref.FlushAll()
		case 9:
			what = "Invalidate"
			perr, rerr = p.Invalidate(), ref.Invalidate()
		case 10: // arm a fault: a read of one page, or the next page write
			id := storage.PageID(arg/2) % pages
			if arg%2 == 0 {
				what = fmt.Sprintf("fail the next read of %d", id)
				for _, tp := range []*twinPager{pt, rt} {
					tp.failRead, tp.readArmed = id, true
				}
			} else {
				what = "fail the next page write"
				pt.failWrite, rt.failWrite = true, true
			}
		}
		if !sameErr(perr, rerr) {
			return fmt.Errorf("step %d, %s: pool error %v, reference error %v", step, what, perr, rerr)
		}
		if err := sameState(p, ref, pt, rt); err != nil {
			return fmt.Errorf("step %d, after %s: %w", step, what, err)
		}
	}

	// Drop every pin and fault, then fill: each shard must reach its
	// capacity, or as many pages as hash to it.
	for _, h := range reads {
		p.Release(h.f)
		ref.Release(h.r)
	}
	for _, h := range writes {
		if err := p.ReleaseMut(h.f); err != nil {
			return err
		}
		if err := ref.ReleaseMut(h.r); err != nil {
			return err
		}
	}
	for _, tp := range []*twinPager{pt, rt} {
		tp.readArmed, tp.failWrite = false, false
	}
	want := 0
	perShard := make([]int, shards)
	for id := storage.PageID(0); id < pages; id++ {
		for i, s := range p.shards {
			if s == p.shard(id) {
				perShard[i]++
			}
		}
		f, err := p.Fetch(id)
		if err != nil {
			return fmt.Errorf("fill: Fetch(%d): %w", id, err)
		}
		p.Release(f)
		r, err := ref.Fetch(id)
		if err != nil {
			return fmt.Errorf("fill: reference Fetch(%d): %w", id, err)
		}
		ref.Release(r)
		if !bytes.Equal(f.Data(), r.data) {
			return fmt.Errorf("fill: page %d bytes differ", id)
		}
	}
	for i, s := range p.shards {
		want += min(perShard[i], s.capacity)
	}
	if got := p.Len(); got != want {
		return fmt.Errorf("fill: the pool holds %d pages after fetching all %d, want %d: a slot leaked", got, pages, want)
	}
	if err := sameState(p, ref, pt, rt); err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	if err := p.FlushAll(); err != nil {
		return err
	}
	if err := ref.FlushAll(); err != nil {
		return err
	}
	a, b := make([]byte, 64), make([]byte, 64)
	for id := storage.PageID(0); id < pages; id++ {
		if err := errors.Join(pt.inner.ReadPage(id, a), rt.inner.ReadPage(id, b)); err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("after the final flush page %d differs in the pagers", id)
		}
	}
	return nil
}

// sameState compares what the two sides expose: Stats, Len, each shard's
// LRU order and the pager writes so far.
func sameState(p *Pool, ref *refPool, pt, rt *twinPager) error {
	if a, b := p.Stats(), ref.Stats(); a != b {
		return fmt.Errorf("stats %+v, reference %+v", a, b)
	}
	if a, b := p.Len(), ref.Len(); a != b {
		return fmt.Errorf("Len %d, reference %d", a, b)
	}
	for i := range p.shards {
		got, err := p.lru(i)
		if err != nil {
			return err
		}
		if want := ref.lru(i); !slices.Equal(got, want) {
			return fmt.Errorf("shard %d LRU order %v, reference %v", i, got, want)
		}
	}
	if !slices.Equal(pt.writes, rt.writes) {
		return fmt.Errorf("pager writes %v, reference %v", pt.writes, rt.writes)
	}
	return nil
}
