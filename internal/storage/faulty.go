package storage

import (
	"sync"
)

// FaultyPager wraps a Pager and injects failures on demand. It exists for
// failure-path testing across the repository (buffer eviction write-backs,
// partially built trees, query-time read errors) — the error-handling
// paths a database substrate must keep honest.
type FaultyPager struct {
	inner Pager

	mu sync.Mutex
	// failRead / failWrite / failAlloc return a non-nil error to inject a
	// failure for the given page (each page of a written run); nil passes
	// the call through.
	failRead  func(id PageID) error
	failWrite func(id PageID) error
	failAlloc func() error
}

// NewFaultyPager wraps inner with no failures armed.
func NewFaultyPager(inner Pager) *FaultyPager {
	return &FaultyPager{inner: inner}
}

// FailReads arms (or disarms, with nil) the read-failure hook.
func (f *FaultyPager) FailReads(hook func(id PageID) error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRead = hook
}

// FailWrites arms (or disarms, with nil) the write-failure hook.
func (f *FaultyPager) FailWrites(hook func(id PageID) error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrite = hook
}

// FailAllocs arms (or disarms, with nil) the alloc-failure hook.
func (f *FaultyPager) FailAllocs(hook func() error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAlloc = hook
}

// PageSize implements Pager.
func (f *FaultyPager) PageSize() int { return f.inner.PageSize() }

// Alloc implements Pager.
func (f *FaultyPager) Alloc() (PageID, error) {
	f.mu.Lock()
	hook := f.failAlloc
	f.mu.Unlock()
	if hook != nil {
		if err := hook(); err != nil {
			return NilPage, err
		}
	}
	return f.inner.Alloc()
}

// ReadPage implements Pager.
func (f *FaultyPager) ReadPage(id PageID, buf []byte) error {
	f.mu.Lock()
	hook := f.failRead
	f.mu.Unlock()
	if hook != nil {
		if err := hook(id); err != nil {
			return err
		}
	}
	return f.inner.ReadPage(id, buf)
}

// WritePage implements Pager. The write hook sees each page of a run in
// turn; a failure on any of them fails the run, and nothing is written.
func (f *FaultyPager) WritePage(id PageID, buf []byte) error {
	f.mu.Lock()
	hook := f.failWrite
	f.mu.Unlock()
	if hook != nil {
		for i := 0; i < max(len(buf)/f.inner.PageSize(), 1); i++ {
			if err := hook(id + PageID(i)); err != nil {
				return err
			}
		}
	}
	return f.inner.WritePage(id, buf)
}

// NumPages implements Pager.
func (f *FaultyPager) NumPages() int { return f.inner.NumPages() }

// Sync implements Pager.
func (f *FaultyPager) Sync() error { return f.inner.Sync() }

// Close implements Pager.
func (f *FaultyPager) Close() error { return f.inner.Close() }
