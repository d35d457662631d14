package buffer

import (
	"cmp"
	"fmt"
	"slices"

	"strtree/internal/storage"
)

// refPool is the pool as it stood while each shard kept its pages in a
// map[storage.PageID]*Frame and its LRU order in a pointer-linked list: the
// oracle FuzzPoolLRU holds Pool to. Its shard code is the old one, with one
// change: WritePages and Invalidate look for a pinned frame in the whole
// pool before they drop or write any. It is single-goroutine (no mutexes)
// and takes no validation marks, which the fuzz target does not observe.
type refPool struct {
	pager  storage.Pager
	shards []*refShard
	shift  uint
}

type refFrame struct {
	id         storage.PageID
	data       []byte
	pins       int
	writePin   bool
	dirty      bool
	prev, next *refFrame
}

type refShard struct {
	pager    storage.Pager
	capacity int
	frames   map[storage.PageID]*refFrame
	head     refFrame
	stats    Stats
}

func newRefPool(pager storage.Pager, capacity, shards int) *refPool {
	p := &refPool{pager: pager, shards: make([]*refShard, shards), shift: 64}
	for bits := 0; 1<<bits < shards; bits++ {
		p.shift--
	}
	base, rem := capacity/shards, capacity%shards
	for i := range p.shards {
		c := base
		if i < rem {
			c++
		}
		s := &refShard{pager: pager, capacity: c, frames: make(map[storage.PageID]*refFrame, c)}
		s.head.next = &s.head
		s.head.prev = &s.head
		p.shards[i] = s
	}
	return p
}

func (p *refPool) shard(id storage.PageID) *refShard {
	return p.shards[(uint64(id)*0x9E3779B97F4A7C15)>>p.shift]
}

func (p *refPool) Fetch(id storage.PageID) (*refFrame, error) { return p.shard(id).fetch(id, false) }

func (p *refPool) FetchMut(id storage.PageID) (*refFrame, error) { return p.shard(id).fetch(id, true) }

func (s *refShard) fetch(id storage.PageID, write bool) (*refFrame, error) {
	s.stats.LogicalReads++
	f, hit := s.frames[id]
	if hit {
		if f.writePin {
			return nil, fmt.Errorf("%w: page %d", ErrWritePinned, id)
		}
		if write && f.pins > 0 {
			return nil, fmt.Errorf("%w: page %d has %d read pins", ErrReadPinned, id, f.pins)
		}
		f.pins++
		s.moveToFront(f)
	}
	if !hit {
		var err error
		if f, err = s.load(id); err != nil {
			return nil, err
		}
	}
	f.writePin = write
	return f, nil
}

func (s *refShard) load(id storage.PageID) (*refFrame, error) {
	f, err := s.allocFrame()
	if err != nil {
		return nil, err
	}
	if err := s.pager.ReadPage(id, f.data); err != nil {
		return nil, err
	}
	s.stats.DiskReads++
	s.publish(f, id, false)
	return f, nil
}

func (s *refShard) publish(f *refFrame, id storage.PageID, dirty bool) {
	f.id = id
	f.pins = 1
	f.writePin = false
	f.dirty = dirty
	s.frames[id] = f
	s.pushFront(f)
}

func (p *refPool) ReleaseMut(f *refFrame) error {
	if !f.writePin || f.pins != 1 {
		return fmt.Errorf("%w: page %d (pins=%d)", ErrNotWritePinned, f.id, f.pins)
	}
	f.writePin = false
	f.dirty = true
	f.pins = 0
	return nil
}

func (p *refPool) Adopt(id storage.PageID) (*refFrame, error) {
	s := p.shard(id)
	if _, cached := s.frames[id]; cached {
		return nil, fmt.Errorf("buffer: adopt of cached page %d", id)
	}
	f, err := s.allocFrame()
	if err != nil {
		return nil, err
	}
	clear(f.data)
	s.publish(f, id, true)
	return f, nil
}

func (p *refPool) Release(f *refFrame) {
	if f.pins <= 0 || f.writePin {
		panic(fmt.Sprintf("refPool: bad release of page %d", f.id))
	}
	f.pins--
}

func (p *refPool) WritePages(first storage.PageID, data []byte) error {
	end := first + storage.PageID(len(data)/p.pager.PageSize())
	for id := first; id < end; id++ {
		if f, ok := p.shard(id).frames[id]; ok && f.pins > 0 {
			return fmt.Errorf("buffer: write past the cache to pinned page %d", id)
		}
	}
	for id := first; id < end; id++ {
		s := p.shard(id)
		if f, ok := s.frames[id]; ok {
			s.unlink(f)
			delete(s.frames, id)
		}
	}
	if err := p.pager.WritePage(first, data); err != nil {
		return err
	}
	for id := first; id < end; id++ {
		p.shard(id).stats.DiskWrites++
	}
	return nil
}

func (p *refPool) FlushAll() error {
	for _, s := range p.shards {
		for _, f := range s.byPage() {
			if err := s.writeBack(f); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *refPool) Invalidate() error {
	for _, s := range p.shards {
		for _, f := range s.byPage() {
			if f.pins > 0 {
				return fmt.Errorf("buffer: invalidate with page %d pinned", f.id)
			}
		}
	}
	for _, s := range p.shards {
		for _, f := range s.byPage() {
			if err := s.writeBack(f); err != nil {
				return err
			}
			s.unlink(f)
			delete(s.frames, f.id)
		}
	}
	return nil
}

func (s *refShard) byPage() []*refFrame {
	fs := make([]*refFrame, 0, len(s.frames))
	for _, f := range s.frames {
		fs = append(fs, f)
	}
	slices.SortFunc(fs, func(a, b *refFrame) int { return cmp.Compare(a.id, b.id) })
	return fs
}

func (p *refPool) Stats() Stats {
	var sum Stats
	for _, s := range p.shards {
		sum.LogicalReads += s.stats.LogicalReads
		sum.DiskReads += s.stats.DiskReads
		sum.DiskWrites += s.stats.DiskWrites
		sum.Evictions += s.stats.Evictions
		for _, f := range s.frames {
			if f.pins > 0 {
				sum.Pinned++
			}
		}
	}
	return sum
}

func (p *refPool) Len() int {
	n := 0
	for _, s := range p.shards {
		n += len(s.frames)
	}
	return n
}

// lru returns shard i's pages, most recently used first.
func (p *refPool) lru(i int) []storage.PageID {
	s := p.shards[i]
	var ids []storage.PageID
	for f := s.head.next; f != &s.head; f = f.next {
		ids = append(ids, f.id)
	}
	return ids
}

func (s *refShard) allocFrame() (*refFrame, error) {
	if len(s.frames) < s.capacity {
		return &refFrame{data: make([]byte, s.pager.PageSize())}, nil
	}
	for f := s.head.prev; f != &s.head; f = f.prev {
		if f.pins > 0 {
			continue
		}
		if err := s.writeBack(f); err != nil {
			return nil, err
		}
		s.unlink(f)
		delete(s.frames, f.id)
		s.stats.Evictions++
		return f, nil
	}
	return nil, ErrPoolExhausted
}

func (s *refShard) writeBack(f *refFrame) error {
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

func (s *refShard) pushFront(f *refFrame) {
	f.next = s.head.next
	f.prev = &s.head
	s.head.next.prev = f
	s.head.next = f
}

func (s *refShard) unlink(f *refFrame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev = nil
	f.next = nil
}

func (s *refShard) moveToFront(f *refFrame) {
	s.unlink(f)
	s.pushFront(f)
}

// lru returns shard i's pages, most recently used first, and checks the
// slot bookkeeping on the way: every slot handed out holds a page or is
// free, never both and never neither, and the table maps each listed page
// to its slot.
func (p *Pool) lru(i int) ([]storage.PageID, error) {
	s := p.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []storage.PageID
	for j := s.head.next; j != 0; j = s.frameLocked(j).next {
		id := s.frameLocked(j).id
		if s.lookupLocked(id) != j {
			return nil, fmt.Errorf("shard %d: page %d sits in slot %d, the table says %d", i, id, j, s.lookupLocked(id))
		}
		ids = append(ids, id)
	}
	if len(ids) != s.n {
		return nil, fmt.Errorf("shard %d: %d pages in the LRU list, %d counted", i, len(ids), s.n)
	}
	if int(s.used)-1 != s.n+len(s.free) || s.n+len(s.free) > s.capacity {
		return nil, fmt.Errorf("shard %d: %d slots used, %d hold pages, %d free, capacity %d", i, s.used-1, s.n, len(s.free), s.capacity)
	}
	return ids, nil
}

// sameErr reports whether two calls failed alike: both succeeded, or both
// failed with the same message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
