package buffer

import "strtree/internal/storage"

// Manager is the page-buffer interface the tree layers program against.
// Two implementations exist:
//
//   - Pool: a single LRU cache behind one mutex. Its replacement
//     decisions are a deterministic function of the fetch sequence, which is
//     what the paper-reproduction experiments rely on: the same trace always
//     produces the same miss counts.
//   - Sharded: N independent Pools selected by a page-number hash, for
//     concurrent query serving. Fetches on different shards proceed in
//     parallel; Stats aggregates the shards so experiment accounting is
//     unchanged. With one shard it is byte-for-byte the deterministic Pool.
//
// All implementations are safe for concurrent use. The pin protocol is the
// concurrency contract: a frame returned by Fetch, Create or Adopt stays pinned —
// and therefore cannot be evicted or have its bytes reused under the caller
// — until the matching Release.
type Manager interface {
	// Fetch pins the page, reading it from the pager on a miss. Every
	// Fetch must be paired with a Release, on every exit path including
	// early stops and context cancellation: zero-copy views over the
	// frame's bytes are only valid inside that pin scope.
	Fetch(id storage.PageID) (*Frame, error)
	// Create pins a zeroed frame for a freshly allocated page: the pager's
	// Alloc, then Adopt.
	Create() (*Frame, error)
	// Adopt pins a zeroed dirty frame for a page the caller allocated
	// from the pager and nobody has written or fetched, without a read.
	// Eviction and its write-back happen here, on the adopting goroutine,
	// which need not be the allocating one.
	Adopt(id storage.PageID) (*Frame, error)
	// Release unpins a frame obtained from Fetch, Create or Adopt.
	Release(f *Frame)
	// FetchMut pins the page exclusively for in-place mutation: it fails
	// if the frame carries any other pin, and while it is held Fetch on
	// the same page fails, so a half-patched page is never observable
	// through the pin protocol. Every FetchMut must be paired with a
	// ReleaseMut.
	FetchMut(id storage.PageID) (*Frame, error)
	// ReleaseMut drops a write pin, marking the frame dirty. Its error
	// reports a pin-protocol violation (the frame was not write-pinned);
	// callers must not drop it.
	ReleaseMut(f *Frame) error
	// FlushAll writes every dirty frame to the pager; frames stay cached.
	FlushAll() error
	// Invalidate drops every frame, writing back dirty ones first.
	Invalidate() error
	// SetTracer installs an observer for every Fetch. With more than one
	// shard the callback may run concurrently from different shards and
	// must be safe for concurrent use.
	SetTracer(fn func(id storage.PageID, hit bool))
	// Stats returns a snapshot of the counters, summed over shards.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
	// Pager returns the underlying pager.
	Pager() storage.Pager
	// Capacity returns the total buffer size in pages.
	Capacity() int
	// Len returns how many frames are currently cached.
	Len() int
}

// Both buffer implementations must satisfy the interface.
var (
	_ Manager = (*Pool)(nil)
	_ Manager = (*Sharded)(nil)
)
