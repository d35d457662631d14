package buffer

import (
	"fmt"

	"strtree/internal/storage"
)

// Sharded is a buffer manager split into a power-of-two number of
// independent LRU shards selected by a page-number hash. Each shard is a
// plain Pool with its own lock, LRU list and hit/miss counters, so fetches
// of pages in different shards proceed in parallel instead of serializing
// behind one mutex — the property the concurrent read path (package query's
// BatchExecutor) needs to scale past one core.
//
// Sharding changes which page is evicted (each shard runs LRU over its own
// subset rather than globally), so aggregate miss counts under memory
// pressure can differ slightly from a single LRU of the same total
// capacity. With Shards == 1 the behavior — including every eviction
// decision and therefore every counter — is byte-for-byte that of Pool;
// paper-reproduction runs use that mode.
//
// Readers are protected by the same pin protocol as Pool: a fetched frame
// is pinned until Release, and a shard never evicts a pinned frame, so no
// reader ever observes a page being evicted (or its bytes rewritten) under
// it. Note the capacity consequence: every concurrently pinned page that
// hashes to one shard occupies a frame there, so a shard must have room
// for the worst-case pins it can receive. Tree traversals pin one page per
// goroutine at a time; keep capacity/shards comfortably above the worker
// count.
type Sharded struct {
	pager  storage.Pager
	shards []*Pool
	shift  uint // 64 - log2(len(shards)); selects the hash's top bits
	total  int  // total capacity across shards
}

// NewSharded creates a sharded LRU manager of the given total capacity.
// shards must be a power of two and at most capacity; shards == 1 gives
// the deterministic single-Pool behavior. Capacity is divided as evenly as
// possible, earlier shards taking the remainder.
func NewSharded(pager storage.Pager, capacity, shards int) (*Sharded, error) {
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("buffer: shard count %d is not a power of two", shards)
	}
	if capacity < shards {
		return nil, fmt.Errorf("buffer: capacity %d < %d shards", capacity, shards)
	}
	s := &Sharded{
		pager:  pager,
		shards: make([]*Pool, shards),
		shift:  64,
		total:  capacity,
	}
	for bits := 0; 1<<bits < shards; bits++ {
		s.shift--
	}
	base, rem := capacity/shards, capacity%shards
	for i := range s.shards {
		c := base
		if i < rem {
			c++
		}
		s.shards[i] = NewPool(pager, c)
	}
	return s, nil
}

// shard returns the pool owning page id. The Fibonacci multiplicative hash
// spreads the tree's densely allocated, level-clustered page numbers
// across shards; its top bits select the shard. A shift of 64 (one shard)
// yields index 0 by Go's defined >=width shift semantics.
func (s *Sharded) shard(id storage.PageID) *Pool {
	return s.shards[(uint64(id)*0x9E3779B97F4A7C15)>>s.shift]
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Fetch pins the page in its owning shard, reading from the pager on a
// miss. Every Fetch must be paired with a Release.
func (s *Sharded) Fetch(id storage.PageID) (*Frame, error) {
	return s.shard(id).Fetch(id)
}

// Create allocates a page from the pager and adopts it.
func (s *Sharded) Create() (*Frame, error) {
	id, err := s.pager.Alloc()
	if err != nil {
		return nil, err
	}
	return s.Adopt(id)
}

// Adopt pins a zeroed dirty frame for the allocated, never-written page id
// in its owning shard, without reading the pager.
func (s *Sharded) Adopt(id storage.PageID) (*Frame, error) {
	return s.shard(id).Adopt(id)
}

// Release unpins a frame obtained from Fetch, Create or Adopt.
func (s *Sharded) Release(f *Frame) {
	s.shard(f.ID()).Release(f)
}

// FetchMut pins the page exclusively for in-place mutation in its owning
// shard. Every FetchMut must be paired with a ReleaseMut.
func (s *Sharded) FetchMut(id storage.PageID) (*Frame, error) {
	return s.shard(id).FetchMut(id)
}

// ReleaseMut drops a write pin obtained from FetchMut, marking the frame
// dirty in its owning shard.
func (s *Sharded) ReleaseMut(f *Frame) error {
	return s.shard(f.ID()).ReleaseMut(f)
}

// FlushAll writes every dirty frame in every shard to the pager.
func (s *Sharded) FlushAll() error {
	for _, p := range s.shards {
		if err := p.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}

// Invalidate drops every frame in every shard, writing back dirty ones
// first. It fails if any frame is pinned.
func (s *Sharded) Invalidate() error {
	for _, p := range s.shards {
		if err := p.Invalidate(); err != nil {
			return err
		}
	}
	return nil
}

// SetTracer installs fn on every shard. With more than one shard the
// callback can run concurrently from different shards; it must be safe for
// concurrent use. Pass nil to remove.
func (s *Sharded) SetTracer(fn func(id storage.PageID, hit bool)) {
	for _, p := range s.shards {
		p.SetTracer(fn)
	}
}

// Stats sums the per-shard counters, so callers account for a sharded
// buffer exactly as for a single pool.
func (s *Sharded) Stats() Stats {
	var sum Stats
	for _, p := range s.shards {
		st := p.Stats()
		sum.LogicalReads += st.LogicalReads
		sum.DiskReads += st.DiskReads
		sum.DiskWrites += st.DiskWrites
		sum.Evictions += st.Evictions
		sum.Pinned += st.Pinned
	}
	return sum
}

// ShardStats returns each shard's own counters, for balance diagnostics.
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, p := range s.shards {
		out[i] = p.Stats()
	}
	return out
}

// ResetStats zeroes every shard's counters.
func (s *Sharded) ResetStats() {
	for _, p := range s.shards {
		p.ResetStats()
	}
}

// Pager returns the underlying pager shared by all shards.
func (s *Sharded) Pager() storage.Pager { return s.pager }

// Capacity returns the total buffer size in pages across shards.
func (s *Sharded) Capacity() int { return s.total }

// Len returns how many frames are currently cached across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, p := range s.shards {
		n += p.Len()
	}
	return n
}
