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
	prev, next int32 // LRU list links: slot numbers in the shard, under its mutex
}

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

// Pool is a fixed-capacity LRU buffer of pages over a storage.Pager. It is
// safe for concurrent use. The zero value is not usable; call NewPool or
// NewSharded.
//
// The pool is split into a power-of-two number of shards selected by a
// page-number hash. Each shard is one LRU list behind its own mutex with
// its own counters, so fetches of pages in different shards proceed in
// parallel — the property the concurrent read path (SearchBatch's
// par.Each) needs to scale past one core. With one shard every
// eviction decision, and therefore every counter, is a deterministic
// function of the fetch sequence: the same trace always produces the same
// miss counts, which is what the paper-reproduction experiments rely on.
// More shards change which page is evicted (each shard runs LRU over its
// own subset rather than globally), so miss counts under memory pressure
// can differ slightly from one LRU of the same total capacity.
//
// A shard never evicts a pinned frame, so every concurrently pinned page
// that hashes to one shard occupies a frame there: a shard must have room
// for the worst-case pins it can receive. Tree traversals pin one page per
// goroutine at a time; keep capacity/shards comfortably above the worker
// count.
type Pool struct {
	pager  storage.Pager
	shards []*shard
	shift  uint // 64 - log2(len(shards)); selects the hash's top bits
}

// shard is one LRU cache of the pool's pages behind one mutex. Its frames
// live in numbered slots; a page table indexed by page id maps a resident
// page to its slot, so a hit is a bounds check, a table load and a relink
// of slots, which the LRU list links by number.
type shard struct {
	mu       sync.Mutex
	pager    storage.Pager
	capacity int
	// guarded by mu. table[id] is the slot holding page id, 0 if none. It
	// grows to the highest page read or adopted into the shard.
	table []int32
	// guarded by mu. The slots, chunkSlots to a chunk, allocated as they are
	// first used so that a *Frame stays put.
	chunks []*[chunkSlots]Frame
	// guarded by mu. Slot 0, the LRU list's sentinel: head.next is the
	// most recently used slot, head.prev the least.
	head  *Frame
	used  int32   // guarded by mu. slots handed out so far, the sentinel included
	free  []int32 // guarded by mu. used slots that hold no page
	n     int     // guarded by mu. pages in the table
	stats Stats   // guarded by mu
	// guarded by mu. tracer, when set, observes every Fetch (page id and
	// whether it hit).
	tracer func(id storage.PageID, hit bool)
}

// NewPool creates a single-shard LRU pool with room for capacity pages: the
// deterministic buffer of the paper's experiments, which range from 10 to
// 500 pages. Capacity must be at least 1.
func NewPool(pager storage.Pager, capacity int) *Pool {
	p, err := NewSharded(pager, capacity, 1)
	if err != nil {
		//strlint:ignore panics documented contract: a pool with no frames is a programming error
		panic(err.Error())
	}
	return p
}

// NewSharded creates an LRU pool of the given total capacity split into
// shards, which must be a power of two and at most capacity; shards == 1
// is NewPool. Capacity is divided as evenly as possible, earlier shards
// taking the remainder.
func NewSharded(pager storage.Pager, capacity, shards int) (*Pool, error) {
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("buffer: shard count %d is not a power of two", shards)
	}
	if capacity < shards {
		return nil, fmt.Errorf("buffer: capacity %d < %d shards", capacity, shards)
	}
	p := &Pool{
		pager:  pager,
		shards: make([]*shard, shards),
		shift:  64,
	}
	for bits := 0; 1<<bits < shards; bits++ {
		p.shift--
	}
	base, rem := capacity/shards, capacity%shards
	for i := range p.shards {
		c := base
		if i < rem {
			c++
		}
		chunk := new([chunkSlots]Frame)
		p.shards[i] = &shard{
			pager:    pager,
			capacity: c,
			chunks:   []*[chunkSlots]Frame{chunk},
			head:     &chunk[0],
			used:     1,
		}
	}
	return p, nil
}

// chunkSlots is the number of frames in one chunk of a shard's slots.
const chunkSlots = 64

// shard returns the shard owning page id. The Fibonacci multiplicative hash
// spreads the tree's densely allocated, level-clustered page numbers
// across shards; its top bits select the shard. A shift of 64 (one shard)
// yields index 0 by Go's defined >=width shift semantics.
func (p *Pool) shard(id storage.PageID) *shard {
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15)>>p.shift]
}

// Pager returns the underlying pager shared by all shards.
func (p *Pool) Pager() storage.Pager { return p.pager }

// SetTracer installs an observer called on every Fetch with the page id
// and whether the request hit the pool. Used to record access traces for
// offline replacement-policy simulation (package trace). Pass nil to
// remove. The callback runs under a shard mutex: keep it trivial. With
// more than one shard it can run concurrently from different shards and
// must be safe for concurrent use.
func (p *Pool) SetTracer(fn func(id storage.PageID, hit bool)) {
	for _, s := range p.shards {
		s.mu.Lock()
		s.tracer = fn
		s.mu.Unlock()
	}
}

// Fetch pins the page in the pool, reading it from the pager on a miss, and
// returns its frame. Every Fetch must be paired with a Release.
func (p *Pool) Fetch(id storage.PageID) (*Frame, error) {
	return p.shard(id).fetch(id, false)
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
	return p.shard(id).fetch(id, true)
}

// fetch is Fetch (write false) and FetchMut (write true): the hit path
// differs in the pin it takes, the miss path is loadLocked for both.
func (s *shard) fetch(id storage.PageID, write bool) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.LogicalReads++
	var f *Frame
	i := s.lookupLocked(id)
	hit := i != 0
	if hit {
		f = s.frameLocked(i)
		if f.writePin {
			return nil, fmt.Errorf("%w: page %d", ErrWritePinned, id)
		}
		if write && f.pins > 0 {
			return nil, fmt.Errorf("%w: page %d has %d read pins", ErrReadPinned, id, f.pins)
		}
		f.pins++
		if s.head.next != i {
			s.unlinkLocked(f)
			s.pushFrontLocked(i, f)
		}
	}
	if s.tracer != nil {
		s.tracer(id, hit)
	}
	if !hit {
		var err error
		if f, err = s.loadLocked(id); err != nil {
			return nil, err
		}
	}
	f.writePin = write
	return f, nil
}

// loadLocked is the miss path: it takes a frame (evicting if the shard is
// full), reads page id into it and publishes it with one pin. It is the one
// place a resident frame's bytes are replaced from the pager, so it is where
// the validation mark of the frame's previous page dies — before ReadPage
// overwrites the bytes, so a read that fails halfway leaves it clear too.
func (s *shard) loadLocked(id storage.PageID) (*Frame, error) {
	i, err := s.allocSlotLocked()
	if err != nil {
		return nil, err
	}
	f := s.frameLocked(i)
	f.checked.Store(false)
	if err := s.pager.ReadPage(id, f.data); err != nil {
		s.free = append(s.free, i)
		return nil, err
	}
	s.stats.DiskReads++
	s.publishLocked(i, id, false)
	return f, nil
}

// publishLocked enters slot i, which just received page id's bytes, into
// the table with one read pin.
func (s *shard) publishLocked(i int32, id storage.PageID, dirty bool) {
	f := s.frameLocked(i)
	f.id = id
	f.pins = 1
	f.writePin = false
	f.dirty = dirty
	if uint(id) >= uint(len(s.table)) {
		s.table = append(s.table, make([]int32, uint(id)+1-uint(len(s.table)))...)
	}
	s.table[id] = i
	s.n++
	s.pushFrontLocked(i, f)
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
	s := p.shard(f.id)
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s := p.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lookupLocked(id) != 0 {
		return nil, fmt.Errorf("buffer: adopt of cached page %d", id)
	}
	i, err := s.allocSlotLocked()
	if err != nil {
		return nil, err
	}
	f := s.frameLocked(i)
	f.checked.Store(false)
	clear(f.data)
	s.publishLocked(i, id, true)
	return f, nil
}

// Release unpins a frame obtained from Fetch, Create or Adopt. Releasing an
// unpinned frame panics: it indicates a double-release bug in the caller.
func (p *Pool) Release(f *Frame) {
	s := p.shard(f.id)
	s.mu.Lock()
	defer s.mu.Unlock()
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

// WritePages writes data, a run of whole pages, to the pager from page
// first on as one call, past the cache. The caller owns the pages and
// writes them whole, so a cached frame of any of them holds a stale image
// and is dropped unwritten before the write (a failed write leaves none
// behind); a pinned one fails the call before any frame is dropped. Each
// page counts one DiskWrite on its own shard.
func (p *Pool) WritePages(first storage.PageID, data []byte) error {
	end := first + storage.PageID(len(data)/p.pager.PageSize())
	p.lockAll()
	for id := first; id < end; id++ {
		if p.shard(id).pinnedLocked(id) {
			p.unlockAll()
			return fmt.Errorf("buffer: write past the cache to pinned page %d", id)
		}
	}
	for id := first; id < end; id++ {
		p.shard(id).dropLocked(id)
	}
	p.unlockAll()
	if err := p.pager.WritePage(first, data); err != nil {
		return err
	}
	p.lockAll()
	for id := first; id < end; id++ {
		p.shard(id).stats.DiskWrites++
	}
	p.unlockAll()
	return nil
}

// lockAll locks every shard, in shard order, for a call that must check
// the whole pool before it changes any of it; unlockAll undoes it.
func (p *Pool) lockAll() {
	for _, s := range p.shards {
		s.mu.Lock()
	}
}

func (p *Pool) unlockAll() {
	for _, s := range p.shards {
		s.mu.Unlock()
	}
}

// pinnedLocked reports whether page id is cached and pinned.
func (s *shard) pinnedLocked(id storage.PageID) bool {
	i := s.lookupLocked(id)
	return i != 0 && s.frameLocked(i).pins > 0
}

// dropLocked forgets page id's frame, if cached, without writing it back.
func (s *shard) dropLocked(id storage.PageID) {
	if i := s.lookupLocked(id); i != 0 {
		s.removeLocked(i)
		s.free = append(s.free, i)
	}
}

// FlushAll writes every dirty frame to the pager, shard by shard and
// within a shard in page order, so a failure after the n-th write has
// always written the same n pages. Frames stay cached.
func (p *Pool) FlushAll() error {
	for _, s := range p.shards {
		if err := s.flushAll(); err != nil {
			return err
		}
	}
	return nil
}

func (s *shard) flushAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range s.table {
		if i == 0 {
			continue
		}
		if err := s.writeBackLocked(s.frameLocked(i)); err != nil {
			return err
		}
	}
	return nil
}

// Invalidate drops every frame, writing back dirty ones first, in page
// order. Used between experiment phases to cold-start the buffer. If any
// frame is pinned it fails before it writes or drops a frame.
func (p *Pool) Invalidate() error {
	p.lockAll()
	defer p.unlockAll()
	for _, s := range p.shards {
		for id := range s.table {
			if s.pinnedLocked(storage.PageID(id)) {
				return fmt.Errorf("buffer: invalidate with page %d pinned", id)
			}
		}
	}
	for _, s := range p.shards {
		if err := s.invalidateLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (s *shard) invalidateLocked() error {
	for _, i := range s.table {
		if i == 0 {
			continue
		}
		f := s.frameLocked(i)
		if err := s.writeBackLocked(f); err != nil {
			return err
		}
		s.dropLocked(f.id)
	}
	return nil
}

// Stats returns a snapshot of the counters summed over the shards, so
// callers account for a sharded pool exactly as for a single LRU.
func (p *Pool) Stats() Stats {
	var sum Stats
	for _, s := range p.shards {
		st := s.snapshot()
		sum.LogicalReads += st.LogicalReads
		sum.DiskReads += st.DiskReads
		sum.DiskWrites += st.DiskWrites
		sum.Evictions += st.Evictions
		sum.Pinned += st.Pinned
	}
	return sum
}

// ShardStats returns each shard's own counters, for balance diagnostics.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.snapshot()
	}
	return out
}

// snapshot returns the shard's counters, with Pinned sampled from the
// frames at call time.
func (s *shard) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	for i := s.head.next; i != 0; i = s.frameLocked(i).next {
		if s.frameLocked(i).pins > 0 {
			st.Pinned++
		}
	}
	return st
}

// ResetStats zeroes the counters. The experiments build the tree, reset,
// then measure queries only.
func (p *Pool) ResetStats() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.stats = Stats{}
		s.mu.Unlock()
	}
}

// Len returns how many frames are currently cached across the shards.
func (p *Pool) Len() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// frameLocked returns slot i's frame.
func (s *shard) frameLocked(i int32) *Frame {
	return &s.chunks[uint32(i)/chunkSlots][uint32(i)%chunkSlots]
}

// lookupLocked returns the slot holding page id, 0 if none.
func (s *shard) lookupLocked(id storage.PageID) int32 {
	if uint(id) < uint(len(s.table)) {
		return s.table[id]
	}
	return 0
}

// allocSlotLocked returns a slot that holds no page: a free one while the
// shard has room, else the least recently used unpinned frame's, written
// back if dirty. A slot's page bytes are allocated on its first use.
func (s *shard) allocSlotLocked() (int32, error) {
	if s.n < s.capacity {
		if k := len(s.free); k > 0 {
			i := s.free[k-1]
			s.free = s.free[:k-1]
			return i, nil
		}
		i := s.used
		s.used++
		if i%chunkSlots == 0 {
			s.chunks = append(s.chunks, new([chunkSlots]Frame))
		}
		s.frameLocked(i).data = make([]byte, s.pager.PageSize())
		return i, nil
	}
	for i := s.head.prev; i != 0; i = s.frameLocked(i).prev {
		f := s.frameLocked(i)
		if f.pins > 0 {
			continue
		}
		if err := s.writeBackLocked(f); err != nil {
			return 0, err
		}
		s.removeLocked(i)
		s.stats.Evictions++
		return i, nil
	}
	return 0, ErrPoolExhausted
}

// removeLocked takes slot i's page out of the table and the LRU list.
func (s *shard) removeLocked(i int32) {
	f := s.frameLocked(i)
	s.unlinkLocked(f)
	s.table[f.id] = 0
	s.n--
}

// writeBackLocked writes a dirty frame back to the pager.
func (s *shard) writeBackLocked(f *Frame) error {
	if !f.dirty {
		return nil
	}
	if err := s.pager.WritePage(f.id, f.data); err != nil {
		return err
	}
	f.dirty = false
	s.stats.DiskWrites++
	return nil
}

// pushFrontLocked links f, slot i's frame, in as the most recently used.
func (s *shard) pushFrontLocked(i int32, f *Frame) {
	f.prev, f.next = 0, s.head.next
	s.frameLocked(s.head.next).prev = i
	s.head.next = i
}

func (s *shard) unlinkLocked(f *Frame) {
	s.frameLocked(f.prev).next = f.next
	s.frameLocked(f.next).prev = f.prev
}
