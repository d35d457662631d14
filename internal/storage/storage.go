// Package storage provides the raw-disk substrate beneath the R-tree: a
// flat array of fixed-size pages addressed by PageID, with exactly one
// R-tree node stored per page as the paper assumes ("exactly one node fits
// per disk page, and hereafter we use the two terms interchangeably").
//
// The paper implements its buffer manager over a raw disk partition so the
// operating system cannot "false-buffer" evicted pages. We reproduce the
// property that matters for the paper's metric — every page request either
// hits our own buffer pool or is a counted disk access — by routing all
// I/O through a Pager and counting at the buffer layer (package buffer).
// Two Pagers are provided: MemPager for tests and experiments, and
// FilePager for on-disk persistence.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// PageID addresses a page within a Pager. Pages are allocated densely
// starting at 0.
type PageID uint32

// NilPage is the sentinel for "no page"; no allocated page ever has it.
const NilPage PageID = 0xFFFFFFFF

// DefaultPageSize mirrors a common filesystem block: 4 KiB holds one
// 100-entry 2-D R-tree node with its header, matching the paper's fan-out.
const DefaultPageSize = 4096

// ErrPageOutOfRange is returned when reading or writing an unallocated page.
var ErrPageOutOfRange = errors.New("storage: page out of range")

// ErrClosed is returned by operations on a closed pager.
var ErrClosed = errors.New("storage: pager closed")

// Pager is a flat, random-access array of equal-size pages. Implementations
// must be safe for concurrent use.
type Pager interface {
	// PageSize returns the fixed size in bytes of every page.
	PageSize() int
	// Alloc reserves the next page id and returns it. It is bookkeeping:
	// an implementation need not touch its medium until the page is
	// written, so a caller that is about to overwrite the page pays for
	// one write, not two. An allocated page that was never written reads
	// as zeros.
	Alloc() (PageID, error)
	// ReadPage copies page id into buf, which must be PageSize() long.
	ReadPage(id PageID, buf []byte) error
	// WritePage copies buf, a whole number of pages, into the pages from
	// id on: a run of consecutive pages is one call. A run that is empty,
	// not whole pages or reaches past NumPages is refused, and nothing of
	// it is written.
	WritePage(id PageID, buf []byte) error
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Sync flushes any buffered state to stable storage, allocated pages
	// nobody wrote included.
	Sync() error
	// Close releases resources. The pager is unusable afterwards.
	Close() error
}

// Stats counts physical page operations at the pager level. The buffer pool
// keeps its own counters; these exist so tests can assert that buffering
// actually suppressed physical I/O. Writes counts pages, however many calls
// wrote them.
type Stats struct {
	Reads  int64
	Writes int64
	Allocs int64
}

// counters is the internal atomic form of Stats.
type counters struct {
	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{Reads: c.reads.Load(), Writes: c.writes.Load(), Allocs: c.allocs.Load()}
}

// MemPager is an in-memory Pager. It is the substrate for all experiments:
// the paper's metric is buffer misses, which are counted identically
// whether the page bytes live in RAM or on disk.
type MemPager struct {
	mu       sync.RWMutex
	pageSize int
	pages    [][]byte
	stats    counters
	closed   bool
}

// NewMemPager returns an empty in-memory pager with the given page size.
func NewMemPager(pageSize int) *MemPager {
	if pageSize <= 0 {
		//strlint:ignore panics documented contract: an invalid page size is a programming error, not a runtime condition
		panic(fmt.Sprintf("storage: invalid page size %d", pageSize))
	}
	return &MemPager{pageSize: pageSize}
}

// PageSize implements Pager.
func (m *MemPager) PageSize() int { return m.pageSize }

// Alloc implements Pager.
func (m *MemPager) Alloc() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return NilPage, ErrClosed
	}
	if uint64(len(m.pages)) >= uint64(NilPage) {
		return NilPage, errors.New("storage: page space exhausted")
	}
	m.pages = append(m.pages, make([]byte, m.pageSize))
	m.stats.allocs.Add(1)
	return PageID(len(m.pages) - 1), nil
}

// ReadPage implements Pager.
func (m *MemPager) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	if err := checkRead(id, buf, m.pageSize, len(m.pages)); err != nil {
		return err
	}
	copy(buf, m.pages[id])
	m.stats.reads.Add(1)
	return nil
}

// WritePage implements Pager.
func (m *MemPager) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	n, err := checkWrite(id, buf, m.pageSize, len(m.pages))
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		copy(m.pages[int(id)+i], buf[i*m.pageSize:])
	}
	m.stats.writes.Add(int64(n))
	return nil
}

// checkRead validates a read of page id into buf over a pager of numPages
// pages of pageSize bytes.
func checkRead(id PageID, buf []byte, pageSize, numPages int) error {
	if int64(id) >= int64(numPages) {
		return fmt.Errorf("%w: page %d of %d", ErrPageOutOfRange, id, numPages)
	}
	if len(buf) != pageSize {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(buf), pageSize)
	}
	return nil
}

// checkWrite validates a write of buf from page id on over a pager of
// numPages pages of pageSize bytes and returns how many pages it covers.
func checkWrite(id PageID, buf []byte, pageSize, numPages int) (int, error) {
	n := len(buf) / pageSize
	if n == 0 || len(buf)%pageSize != 0 {
		return 0, fmt.Errorf("storage: write of %d bytes is not whole %d-byte pages", len(buf), pageSize)
	}
	if int64(id)+int64(n) > int64(numPages) {
		return 0, fmt.Errorf("%w: %d pages from page %d, pager holds %d", ErrPageOutOfRange, n, id, numPages)
	}
	return n, nil
}

// NumPages implements Pager.
func (m *MemPager) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Sync implements Pager; memory is always "stable".
func (m *MemPager) Sync() error { return nil }

// Close implements Pager.
func (m *MemPager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	return nil
}

// Stats returns a snapshot of the physical I/O counters.
func (m *MemPager) Stats() Stats { return m.stats.snapshot() }

// FilePager stores pages in a regular file, page i at byte offset
// i*PageSize. It gives the index durable persistence (cmd/strload) and a
// faithful stand-in for the paper's raw partition.
//
// Alloc does no I/O: it hands out the next id, and the file grows when a
// page past its end is written. Between an Alloc and that write the file
// is shorter than NumPages × PageSize (or holds a hole, when a later page
// was written first); ReadPage returns zeros for such a page, and Sync and
// Close extend the file to exactly NumPages × PageSize before they return,
// so a file at rest always has the length OpenFilePager expects.
//
// A page below filed is read by readFiled. On Linux (mmap_linux.go) that
// copies it out of a read-only shared mapping of the file, made on the
// first such read and grown when filed outgrows it; elsewhere
// (mmap_other.go) it is one ReadAt. Writes are always WriteAt.
type FilePager struct {
	mu       sync.Mutex
	f        file
	pageSize int
	n        int    // pages allocated
	filed    int    // pages the file is long enough to hold; <= n
	mapped   []byte // the file's read-only mapping; nil until a read needs it
	stats    Stats
	closed   bool
}

// file is what FilePager needs of *os.File; tests substitute one that
// fails.
type file interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Fd() uintptr
}

// CreateFilePager creates or truncates the file at path and returns an
// empty pager over it.
func CreateFilePager(path string, pageSize int) (*FilePager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: invalid page size %d", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	return &FilePager{f: f, pageSize: pageSize}, nil
}

// OpenFilePager opens an existing page file. The file length must be a
// multiple of pageSize.
func OpenFilePager(path string, pageSize int) (*FilePager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: invalid page size %d", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s length %d not a multiple of page size %d", path, fi.Size(), pageSize)
	}
	n := int(fi.Size() / int64(pageSize))
	return &FilePager{f: f, pageSize: pageSize, n: n, filed: n}, nil
}

// PageSize implements Pager.
func (p *FilePager) PageSize() int { return p.pageSize }

// Alloc implements Pager. No I/O: see FilePager.
func (p *FilePager) Alloc() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return NilPage, ErrClosed
	}
	if uint64(p.n) >= uint64(NilPage) {
		return NilPage, errors.New("storage: page space exhausted")
	}
	id := PageID(p.n)
	p.n++
	p.stats.Allocs++
	return id, nil
}

// ReadPage implements Pager. An allocated page at or beyond filed, or in
// a hole below it, was never written and reads as zeros. A page below
// filed that the file no longer holds (it was truncated underneath) or
// that cannot be read is an error.
func (p *FilePager) ReadPage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := checkRead(id, buf, p.pageSize, p.n); err != nil {
		return err
	}
	if int64(id) >= int64(p.filed) {
		clear(buf)
	} else if err := p.readFiled(id, buf); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	p.stats.Reads++
	return nil
}

// WritePage implements Pager: one WriteAt for the whole run. Writing past
// the file's end extends it to the run's end.
func (p *FilePager) WritePage(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	n, err := checkWrite(id, buf, p.pageSize, p.n)
	if err != nil {
		return err
	}
	if _, err := p.f.WriteAt(buf, int64(id)*int64(p.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	p.filed = max(p.filed, int(id)+n)
	p.stats.Writes += int64(n)
	return nil
}

// NumPages implements Pager.
func (p *FilePager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// extendLocked grows the file over allocated pages no write has reached.
func (p *FilePager) extendLocked() error {
	if p.filed == p.n {
		return nil
	}
	if err := p.f.Truncate(int64(p.n) * int64(p.pageSize)); err != nil {
		return fmt.Errorf("storage: extend to %d pages: %w", p.n, err)
	}
	p.filed = p.n
	return nil
}

// Sync implements Pager.
func (p *FilePager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if err := p.extendLocked(); err != nil {
		return err
	}
	return p.f.Sync()
}

// Close implements Pager.
func (p *FilePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	return errors.Join(p.extendLocked(), p.unmap(), p.f.Close())
}

// Stats returns a snapshot of the physical I/O counters.
func (p *FilePager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
