// Package buffer implements the LRU buffer manager of the paper's
// experimental methodology (Section 3). All R-tree page requests go through
// a Pool; a request that misses the pool is a disk access, the paper's
// primary comparison metric. The pool writes evicted dirty pages straight
// back to the pager, mirroring the paper's raw-partition setup in which an
// evicted node "is immediately written to disk and not false-buffered by
// the operating system's virtual memory manager".
//
// The paper uses plain LRU for all nodes regardless of level; it discusses,
// and cites [8] to reject, pinning the root and the first few levels. So
// does the Pool: LRU is its one replacement policy (package trace simulates
// the alternatives offline from a recorded fetch sequence).
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"strtree/internal/storage"
)

// ErrPoolExhausted is returned by Fetch when every frame is pinned and no
// page can be evicted to make room.
var ErrPoolExhausted = errors.New("buffer: all frames pinned")

// Write-pin protocol violations. The write pin is an assertion layer, not a
// lock: mutation exclusivity is the caller's job (the tree is single-writer;
// the serving layer serializes writers against readers). These errors are
// how a violated assumption surfaces as a diagnosable failure instead of a
// silently half-patched page.
var (
	// ErrReadPinned is returned by FetchMut when the page already carries
	// read pins: a concurrent reader could observe the page mid-patch.
	ErrReadPinned = errors.New("buffer: write pin on a read-pinned page")
	// ErrWritePinned is returned by Fetch and FetchMut when the page is
	// write-pinned: its bytes are being patched and must not be observed.
	ErrWritePinned = errors.New("buffer: page is write-pinned")
	// ErrNotWritePinned is returned by ReleaseMut for a frame that does not
	// hold a write pin (mismatched Fetch/ReleaseMut pairing).
	ErrNotWritePinned = errors.New("buffer: release of a frame that is not write-pinned")
)

// Stats are the pool's access counters. DiskReads is the paper's "number of
// disk accesses" metric; LogicalReads-DiskReads is the number of buffer
// hits. Pinned is not a counter but a gauge sampled when the snapshot is
// taken: frames currently pinned by in-flight readers. The serving layer's
// admin endpoint exposes it per shard to make pin leaks and per-shard pin
// pressure visible at runtime.
type Stats struct {
	LogicalReads int64 // Fetch calls
	DiskReads    int64 // Fetch misses that went to the pager
	DiskWrites   int64 // dirty evictions + flushes written to the pager
	Evictions    int64 // frames evicted to make room
	Pinned       int64 // frames pinned right now (gauge, not a counter)
}

// Frame is a buffered page. The frame's bytes are owned by the pool; a
// caller may read and write Data between Fetch and Release but must not
// retain it afterwards. This pin scope is the lifetime contract of the
// zero-copy read path: a node.View constructed over Data aliases these
// bytes and must die before the Release — never stored, never returned
// upward — because after the unpin the frame can be evicted and its
// backing array handed to a different page.
//
// A frame also carries the verdict of its consumer's validation, so a page
// is validated once per buffer residency instead of once per visit. The
// invariant: Checked reports true only if the current byte image passed the
// consumer's full check (node.MakeView, for a tree page) since it last
// changed. The consumer sets the mark with SetChecked, under the pin the
// check ran under and only after it succeeded. The pool clears it at every
// point the pin protocol lets the bytes change: a miss load (before
// ReadPage, so a read that fails halfway leaves it clear too), Create,
// MarkDirty and ReleaseMut. Release, a hit and FlushAll leave the bytes
// alone and so leave the mark. A stray write to Data outside the
// protocol (no MarkDirty, no write pin) is invisible to the mark; only the
// readers that always validate in full (rtree's Walk and Check) catch it.
type Frame struct {
	id   storage.PageID
	data []byte
	// checked is the validation mark. Atomic because concurrent readers of
	// one resident page read it, and may both set it, outside the pool mutex.
	checked atomic.Bool
	pins    int
	// writePin marks the single pin as exclusive: the holder is patching
	// Data in place and no reader may pin the frame until ReleaseMut.
	writePin   bool
	dirty      bool
	prev, next *Frame // LRU list links, guarded by the pool mutex
}

// ID returns the page the frame holds.
func (f *Frame) ID() storage.PageID { return f.id }

// Data returns the page bytes. Valid only while the frame is pinned.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty records that the caller modifies Data, so the page must reach
// the pager before eviction, and clears the validation mark: the bytes are
// no longer the image that was checked.
func (f *Frame) MarkDirty() {
	f.dirty = true
	f.checked.Store(false)
}

// Checked reports whether the frame's current bytes passed the consumer's
// full validation since they last changed (see Frame). Read it under a pin.
func (f *Frame) Checked() bool { return f.checked.Load() }

// SetChecked records that the frame's bytes just passed the consumer's full
// validation. Call it only under the pin the check ran under.
func (f *Frame) SetChecked() { f.checked.Store(true) }

// Pool is a fixed-capacity LRU cache of pages over a storage.Pager. It is
// safe for concurrent use. The zero value is not usable; call NewPool.
type Pool struct {
	mu       sync.Mutex
	pager    storage.Pager
	capacity int
	frames   map[storage.PageID]*Frame // guarded by mu
	// guarded by mu. Intrusive LRU list with a sentinel: head.next is most
	// recently used, head.prev is least recently used.
	head  Frame
	stats Stats // guarded by mu
	// guarded by mu. tracer, when set, observes every Fetch (page id and
	// whether it hit).
	tracer func(id storage.PageID, hit bool)
}

// SetTracer installs an observer called on every Fetch with the page id
// and whether the request hit the pool. Used to record access traces for
// offline replacement-policy simulation (package trace). Pass nil to
// remove. The callback runs under the pool mutex: keep it trivial.
func (p *Pool) SetTracer(fn func(id storage.PageID, hit bool)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = fn
}

// NewPool creates an LRU pool with room for capacity pages. Capacity must
// be at least 1; the paper's experiments range from 10 to 500 pages.
func NewPool(pager storage.Pager, capacity int) *Pool {
	if capacity < 1 {
		//strlint:ignore panics documented contract: a pool with no frames is a programming error
		panic(fmt.Sprintf("buffer: capacity %d < 1", capacity))
	}
	p := &Pool{
		pager:    pager,
		capacity: capacity,
		frames:   make(map[storage.PageID]*Frame, capacity),
	}
	p.head.next = &p.head
	p.head.prev = &p.head
	return p
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Pager returns the underlying pager.
func (p *Pool) Pager() storage.Pager { return p.pager }

// Fetch pins the page in the pool, reading it from the pager on a miss, and
// returns its frame. Every Fetch must be paired with a Release.
func (p *Pool) Fetch(id storage.PageID) (*Frame, error) {
	return p.fetch(id, false)
}

// FetchMut pins the page exclusively for in-place mutation, reading it from
// the pager on a miss. The write pin asserts the single-writer contract the
// mutation path relies on: if the frame already carries any pin — a
// reader's, or another write pin — FetchMut fails with ErrReadPinned or
// ErrWritePinned instead of letting the caller patch bytes a concurrent
// traversal may be decoding. While the write pin is held, Fetch on the same
// page fails with ErrWritePinned. Every FetchMut must be paired with a
// ReleaseMut.
func (p *Pool) FetchMut(id storage.PageID) (*Frame, error) {
	return p.fetch(id, true)
}

// fetch is Fetch (write false) and FetchMut (write true): the hit path
// differs in the pin it takes, the miss path is loadLocked for both.
func (p *Pool) fetch(id storage.PageID, write bool) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.LogicalReads++
	f, hit := p.frames[id]
	if hit {
		if f.writePin {
			return nil, fmt.Errorf("%w: page %d", ErrWritePinned, id)
		}
		if write && f.pins > 0 {
			return nil, fmt.Errorf("%w: page %d has %d read pins", ErrReadPinned, id, f.pins)
		}
		f.pins++
		p.moveToFrontLocked(f)
	}
	if p.tracer != nil {
		p.tracer(id, hit)
	}
	if !hit {
		var err error
		if f, err = p.loadLocked(id); err != nil {
			return nil, err
		}
	}
	f.writePin = write
	return f, nil
}

// loadLocked is the miss path: it takes a frame (evicting if the pool is
// full), reads page id into it and publishes it with one pin. It is the one
// place a resident frame's bytes are replaced from the pager, so it is where
// the validation mark of the frame's previous page dies — before ReadPage
// overwrites the bytes, so a read that fails halfway leaves it clear too.
func (p *Pool) loadLocked(id storage.PageID) (*Frame, error) {
	f, err := p.allocFrameLocked()
	if err != nil {
		return nil, err
	}
	f.checked.Store(false)
	if err := p.pager.ReadPage(id, f.data); err != nil {
		return nil, err
	}
	p.stats.DiskReads++
	p.publishLocked(f, id, false)
	return f, nil
}

// publishLocked enters a frame that just received page id's bytes into the
// table with one read pin.
func (p *Pool) publishLocked(f *Frame, id storage.PageID, dirty bool) {
	f.id = id
	f.pins = 1
	f.writePin = false
	f.dirty = dirty
	p.frames[id] = f
	p.pushFrontLocked(f)
}

// ReleaseMut drops a write pin obtained from FetchMut, marking the frame
// dirty (the pin existed to patch its bytes; an aborted patch that changed
// nothing writes back an identical page, which costs a write but never
// correctness). It returns ErrNotWritePinned if the frame does not hold a
// write pin — a mismatched Fetch/ReleaseMut pairing. The error is the
// caller's signal that the pin protocol was violated mid-mutation and the
// page's consistency is in question; dropping it is a bug (the strlint
// droppederr check covers this package's callers).
func (p *Pool) ReleaseMut(f *Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !f.writePin || f.pins != 1 {
		return fmt.Errorf("%w: page %d (pins=%d)", ErrNotWritePinned, f.id, f.pins)
	}
	f.writePin = false
	f.dirty = true
	f.checked.Store(false)
	f.pins = 0
	return nil
}

// Create pins a brand-new page: it allocates a page in the pager and
// adopts it. The returned frame is dirty.
func (p *Pool) Create() (*Frame, error) {
	id, err := p.pager.Alloc()
	if err != nil {
		return nil, err
	}
	return p.Adopt(id)
}

// Adopt pins a zeroed dirty frame for page id without reading the pager:
// the page was allocated and never written, and the caller is about to
// fill it. Making room may evict — and write back — another page, so a
// caller that allocates on one goroutine and adopts on another moves that
// I/O off the first. A page the pool already holds cannot be adopted; a
// page that may be cached (a recycled one) is pinned with Fetch.
func (p *Pool) Adopt(id storage.PageID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, cached := p.frames[id]; cached {
		return nil, fmt.Errorf("buffer: adopt of cached page %d", id)
	}
	f, err := p.allocFrameLocked()
	if err != nil {
		return nil, err
	}
	f.checked.Store(false)
	clear(f.data)
	p.publishLocked(f, id, true)
	return f, nil
}

// Release unpins a frame obtained from Fetch, Create or Adopt. Releasing an
// unpinned frame panics: it indicates a double-release bug in the caller.
func (p *Pool) Release(f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins <= 0 {
		//strlint:ignore panics documented contract: releasing an unpinned frame is a double-release bug in the caller
		panic(fmt.Sprintf("buffer: release of unpinned page %d", f.id))
	}
	if f.writePin {
		//strlint:ignore panics documented contract: a write pin must go through ReleaseMut so its protocol error is observable
		panic(fmt.Sprintf("buffer: Release of write-pinned page %d (use ReleaseMut)", f.id))
	}
	f.pins--
}

// FlushAll writes every dirty frame to the pager. Frames stay cached.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if !f.dirty {
			continue
		}
		if err := p.pager.WritePage(f.id, f.data); err != nil {
			return err
		}
		f.dirty = false
		p.stats.DiskWrites++
	}
	return nil
}

// Invalidate drops every frame, writing back dirty ones first. Used between
// experiment phases to cold-start the buffer.
func (p *Pool) Invalidate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, f := range p.frames {
		if f.pins > 0 {
			return fmt.Errorf("buffer: invalidate with page %d pinned", id)
		}
		if f.dirty {
			if err := p.pager.WritePage(f.id, f.data); err != nil {
				return err
			}
			p.stats.DiskWrites++
		}
		p.unlinkLocked(f)
		delete(p.frames, id)
	}
	return nil
}

// Stats returns a snapshot of the counters, with Pinned sampled from the
// frame table at call time.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	for _, f := range p.frames {
		if f.pins > 0 {
			s.Pinned++
		}
	}
	return s
}

// ResetStats zeroes the counters. The experiments build the tree, reset,
// then measure queries only.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Len returns how many frames are currently cached (the Manager method;
// Sharded.Len sums it over the shards).
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// allocFrameLocked returns a frame not in the table: a new one while the
// pool has room, else the least recently used unpinned frame, written back
// if dirty.
func (p *Pool) allocFrameLocked() (*Frame, error) {
	if len(p.frames) < p.capacity {
		return &Frame{data: make([]byte, p.pager.PageSize())}, nil
	}
	for f := p.head.prev; f != &p.head; f = f.prev {
		if f.pins > 0 {
			continue
		}
		if err := p.writeBackLocked(f); err != nil {
			return nil, err
		}
		p.unlinkLocked(f)
		delete(p.frames, f.id)
		p.stats.Evictions++
		return f, nil
	}
	return nil, ErrPoolExhausted
}

// writeBackLocked flushes a dirty victim before eviction.
func (p *Pool) writeBackLocked(f *Frame) error {
	if !f.dirty {
		return nil
	}
	if err := p.pager.WritePage(f.id, f.data); err != nil {
		return err
	}
	f.dirty = false
	p.stats.DiskWrites++
	return nil
}

func (p *Pool) pushFrontLocked(f *Frame) {
	f.next = p.head.next
	f.prev = &p.head
	p.head.next.prev = f
	p.head.next = f
}

func (p *Pool) unlinkLocked(f *Frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev = nil
	f.next = nil
}

func (p *Pool) moveToFrontLocked(f *Frame) {
	p.unlinkLocked(f)
	p.pushFrontLocked(f)
}
