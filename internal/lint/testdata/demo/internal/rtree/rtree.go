// Package rtree fixtures the guardedby check: annotated fields must only
// be touched with their mutex held.
package rtree

import "sync"

// Store is a page cache with annotated shared state.
type Store struct {
	mu    sync.Mutex
	pages map[int][]byte // guarded by mu
	count int            // guarded by mu
	// The annotation below names a nonexistent field and is itself a
	// finding.
	stale int // guarded by lock -- want guardedby
}

// Get fires guardedby: it reads pages without taking mu.
func (s *Store) Get(id int) []byte {
	return s.pages[id] // want guardedby
}

// Put must not fire: the lock is held for both accesses.
func (s *Store) Put(id int, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages[id] = b
	s.count++
}

// Len must not fire: explicit unlock after the access.
func (s *Store) Len() int {
	s.mu.Lock()
	n := s.count
	s.mu.Unlock()
	return n
}

// countLocked must not fire: the Locked suffix marks the caller as the
// lock holder.
func (s *Store) countLocked() int { return s.count }
