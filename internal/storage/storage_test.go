package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// pagerFactories lets every conformance test run against both
// implementations.
func pagerFactories(t *testing.T) map[string]func() Pager {
	t.Helper()
	return map[string]func() Pager{
		"mem": func() Pager { return NewMemPager(128) },
		"file": func() Pager {
			p, err := CreateFilePager(filepath.Join(t.TempDir(), "pages.db"), 128)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
}

func TestPagerAllocReadWrite(t *testing.T) {
	for name, mk := range pagerFactories(t) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			if p.PageSize() != 128 {
				t.Fatalf("PageSize = %d", p.PageSize())
			}
			id, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if id != 0 {
				t.Fatalf("first page id = %d, want 0", id)
			}
			// Fresh page is zeroed.
			buf := make([]byte, 128)
			for i := range buf {
				buf[i] = 0xAA
			}
			if err := p.ReadPage(id, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, 128)) {
				t.Fatal("fresh page not zeroed")
			}
			// Write and read back.
			for i := range buf {
				buf[i] = byte(i)
			}
			if err := p.WritePage(id, buf); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 128)
			if err := p.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, got) {
				t.Fatal("read back differs from write")
			}
			if p.NumPages() != 1 {
				t.Fatalf("NumPages = %d", p.NumPages())
			}
		})
	}
}

func TestPagerOutOfRange(t *testing.T) {
	for name, mk := range pagerFactories(t) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			buf := make([]byte, 128)
			if err := p.ReadPage(0, buf); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("read unallocated: err = %v", err)
			}
			if err := p.WritePage(5, buf); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("write unallocated: err = %v", err)
			}
		})
	}
}

func TestPagerBufferSizeMismatch(t *testing.T) {
	for name, mk := range pagerFactories(t) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			if _, err := p.Alloc(); err != nil {
				t.Fatal(err)
			}
			if err := p.ReadPage(0, make([]byte, 64)); err == nil {
				t.Fatal("short buffer accepted")
			}
			if err := p.ReadPage(0, make([]byte, 256)); err == nil {
				t.Fatal("long read buffer accepted")
			}
			// A write is a run of whole pages: a page and a half is neither.
			for _, size := range []int{0, 64, 192} {
				if err := p.WritePage(0, make([]byte, size)); err == nil {
					t.Fatalf("write of %d bytes accepted", size)
				}
			}
		})
	}
}

// TestPagerWriteRun is the run contract of WritePage on every pager: a run
// lands in every page it covers; a length that is not whole pages, or a
// run past NumPages, is refused and writes nothing; a FilePager grows to
// the run's end; and a FaultyPager's hook sees every page of the run, a
// failure on any of them failing the whole run.
func TestPagerWriteRun(t *testing.T) {
	pagers := pagerFactories(t)
	var (
		hooked []PageID
		armed  bool
	)
	pagers["faulty"] = func() Pager {
		f := NewFaultyPager(NewMemPager(128))
		f.FailWrites(func(id PageID) error {
			hooked = append(hooked, id)
			if armed && id == 6 {
				return errInjected
			}
			return nil
		})
		return f
	}
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, 128) }
	for name, mk := range pagers {
		t.Run(name, func(t *testing.T) {
			p := mk()
			defer p.Close()
			for i := 0; i < 8; i++ {
				if _, err := p.Alloc(); err != nil {
					t.Fatal(err)
				}
			}
			hooked = nil
			run := append(append(page(1), page(2)...), page(3)...)
			if err := p.WritePage(2, run); err != nil {
				t.Fatal(err)
			}
			if name == "faulty" && fmt.Sprint(hooked) != "[2 3 4]" {
				t.Fatalf("write hook saw pages %v of the run 2..4", hooked)
			}
			if f, ok := p.(*FilePager); ok {
				if got := fileLen(t, f.f.(*os.File).Name()); got != 5*128 {
					t.Fatalf("file is %d bytes after a run ending at page 4, want %d", got, 5*128)
				}
			}
			want := map[PageID][]byte{1: page(0), 2: page(1), 3: page(2), 4: page(3), 5: page(0), 6: page(0), 7: page(0)}
			check := func(when string) {
				t.Helper()
				got := make([]byte, 128)
				for id, w := range want {
					if err := p.ReadPage(id, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, w) {
						t.Fatalf("%s: page %d holds %x…, want %x…", when, id, got[:4], w[:4])
					}
				}
			}
			check("after the run")
			if err := p.WritePage(5, run[:2*128+1]); err == nil {
				t.Fatal("a run of two pages and a byte was accepted")
			}
			check("after a ragged run")
			if err := p.WritePage(6, run); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("run over pages 6..8 of 8: %v, want ErrPageOutOfRange", err)
			}
			check("after a run past the end")
			if name == "faulty" {
				hooked, armed = nil, true
				if err := p.WritePage(5, run); !errors.Is(err, errInjected) {
					t.Fatalf("run over the failing page 6: %v", err)
				}
				if fmt.Sprint(hooked) != "[5 6]" {
					t.Fatalf("write hook saw pages %v, want [5 6]: the failing page ends the run", hooked)
				}
				check("after a failed run")
			}
		})
	}
}

func TestPagerClosed(t *testing.T) {
	for name, mk := range pagerFactories(t) {
		t.Run(name, func(t *testing.T) {
			p := mk()
			if _, err := p.Alloc(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Alloc(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Alloc after close: %v", err)
			}
			if err := p.ReadPage(0, make([]byte, 128)); !errors.Is(err, ErrClosed) {
				t.Fatalf("Read after close: %v", err)
			}
			if err := p.WritePage(0, make([]byte, 128)); !errors.Is(err, ErrClosed) {
				t.Fatalf("Write after close: %v", err)
			}
		})
	}
}

func TestMemPagerStats(t *testing.T) {
	p := NewMemPager(64)
	defer p.Close()
	id, _ := p.Alloc()
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		if err := p.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Reads != 3 || s.Writes != 1 || s.Allocs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFilePagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	p, err := CreateFilePager(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64)
	for i := range want {
		want[i] = byte(i * 3)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WritePage(2, want); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := OpenFilePager(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.NumPages() != 4 {
		t.Fatalf("reopened NumPages = %d, want 4", q.NumPages())
	}
	got := make([]byte, 64)
	if err := q.ReadPage(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("persisted page corrupted")
	}
}

func TestFilePagerStats(t *testing.T) {
	p, err := CreateFilePager(filepath.Join(t.TempDir(), "s.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	id, _ := p.Alloc()
	buf := make([]byte, 64)
	if err := p.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Allocs != 1 || s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFilePagerAllocZeroAllocs pins Alloc to bookkeeping: a 500k-entry
// build allocates ~5000 pages and must make neither 5000 garbage slices nor
// 5000 writes doing it. The file does not grow until a page is written or
// the pager is synced; the allocated pages read as zeros meanwhile.
func TestFilePagerAllocZeroAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "z.db")
	p, err := CreateFilePager(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	if a := testing.AllocsPerRun(runs, func() {
		if _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Alloc allocates %v times per call, want 0", a)
	}
	if p.NumPages() != runs+2 {
		t.Fatalf("NumPages = %d, want %d", p.NumPages(), runs+2)
	}
	if got := fileLen(t, path); got != 0 {
		t.Fatalf("file is %d bytes after %d Allocs and no write, want 0: Alloc does no I/O", got, p.NumPages())
	}
	buf := bytes.Repeat([]byte{0xAA}, 4096)
	if err := p.ReadPage(PageID(p.NumPages()-1), buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4096)) {
		t.Fatal("freshly allocated page is not zero")
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := fileLen(t, path), int64(p.NumPages())*4096; got != want {
		t.Fatalf("file is %d bytes after Sync over %d pages, want %d", got, p.NumPages(), want)
	}
}

func fileLen(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestPagerAllocatedUnwrittenPages is the Alloc contract on both pagers: an
// allocated page nobody wrote reads as zeros and counts one read — whether
// it lies past everything written (no read reaches the file) or in a hole
// below a written page (read from the file, through its mapping on Linux) — and
// a FilePager's file is exactly NumPages × PageSize long after Sync, after
// Close and on reopen, the unwritten highest pages included.
func TestPagerAllocatedUnwrittenPages(t *testing.T) {
	const size, pages, written = 128, 9, 5 // page 5 written; 0-4 a hole, 6-8 past the end
	path := filepath.Join(t.TempDir(), "pages.db")
	fp, err := CreateFilePager(path, size)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemPager(size)
	reads := func(p Pager) int64 {
		if m, ok := p.(*MemPager); ok {
			return m.Stats().Reads
		}
		return p.(*FilePager).Stats().Reads
	}
	for name, p := range map[string]Pager{"mem": mem, "file": fp} {
		for i := 0; i < pages; i++ {
			if id, err := p.Alloc(); err != nil || int(id) != i {
				t.Fatalf("%s: Alloc %d = %d, %v", name, i, id, err)
			}
		}
		if err := p.WritePage(written, bytes.Repeat([]byte{7}, size)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, id := range []PageID{0, written - 1, written + 1, pages - 1} {
			buf := bytes.Repeat([]byte{0xAA}, size)
			before := reads(p)
			if err := p.ReadPage(id, buf); err != nil {
				t.Fatalf("%s: read of unwritten page %d: %v", name, id, err)
			}
			if !bytes.Equal(buf, make([]byte, size)) {
				t.Fatalf("%s: unwritten page %d is not zero", name, id)
			}
			if got := reads(p) - before; got != 1 {
				t.Fatalf("%s: read of unwritten page %d counted %d reads, want 1", name, id, got)
			}
		}
		if err := p.ReadPage(pages, make([]byte, size)); !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("%s: read past NumPages: %v, want ErrPageOutOfRange", name, err)
		}
		if p.NumPages() != pages {
			t.Fatalf("%s: NumPages = %d, want %d", name, p.NumPages(), pages)
		}
	}

	if got := fileLen(t, path); got != (written+1)*size {
		t.Fatalf("file is %d bytes before Sync, want %d: only the write extends it", got, (written+1)*size)
	}
	if err := fp.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fileLen(t, path); got != pages*size {
		t.Fatalf("file is %d bytes after Sync, want %d", got, pages*size)
	}
	// Two more pages, never written, then Close without a Sync.
	for i := 0; i < 2; i++ {
		if _, err := fp.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileLen(t, path); got != (pages+2)*size {
		t.Fatalf("file is %d bytes after Close, want %d", got, (pages+2)*size)
	}
	re, err := OpenFilePager(path, size)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != pages+2 {
		t.Fatalf("reopened NumPages = %d, want %d", re.NumPages(), pages+2)
	}
	buf := make([]byte, size)
	if err := re.ReadPage(written, buf); err != nil || buf[0] != 7 {
		t.Fatalf("reopened written page: %v, first byte %d", err, buf[0])
	}
	if err := re.ReadPage(pages+1, buf); err != nil || !bytes.Equal(buf, make([]byte, size)) {
		t.Fatalf("reopened unwritten last page: %v, zero %v", err, bytes.Equal(buf, make([]byte, size)))
	}
	if got := fileLen(t, path); got != (pages+2)*size {
		t.Fatalf("file is %d bytes after reopen and reads, want %d", got, (pages+2)*size)
	}
}

// shortFile is a file whose writes past a byte limit stop short, as a full
// disk's do.
type shortFile struct {
	*os.File
	limit int64
}

func (f shortFile) WriteAt(b []byte, off int64) (int, error) {
	if end := off + int64(len(b)); end > f.limit {
		n, _ := f.File.WriteAt(b[:max(f.limit-off, 0)], off)
		return n, io.ErrShortWrite
	}
	return f.File.WriteAt(b, off)
}

func (f shortFile) Truncate(size int64) error {
	if size > f.limit {
		return io.ErrShortWrite
	}
	return f.File.Truncate(size)
}

// TestFilePagerShortWriteWhileExtending: Alloc cannot fail for lack of
// space any more, so the write that extends the file must, and Sync and
// Close must when it is they who extend it. None of them panics, and a
// page below the limit stays readable.
func TestFilePagerShortWriteWhileExtending(t *testing.T) {
	const size = 128
	path := filepath.Join(t.TempDir(), "short.db")
	p, err := CreateFilePager(path, size)
	if err != nil {
		t.Fatal(err)
	}
	p.f = shortFile{File: p.f.(*os.File), limit: 2*size + size/2}
	for i := 0; i < 4; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatalf("Alloc %d: %v (Alloc does no I/O and cannot run out of space)", i, err)
		}
	}
	page := bytes.Repeat([]byte{9}, size)
	if err := p.WritePage(1, page); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePage(2, page); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("write cut short while extending: %v, want io.ErrShortWrite", err)
	}
	if err := p.WritePage(3, page); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("write wholly past the limit: %v, want io.ErrShortWrite", err)
	}
	got := make([]byte, size)
	if err := p.ReadPage(1, got); err != nil || !bytes.Equal(got, page) {
		t.Fatalf("page below the limit after failed writes: %v", err)
	}
	if err := p.Sync(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Sync that cannot extend the file: %v, want io.ErrShortWrite", err)
	}
	if err := p.Close(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Close that cannot extend the file: %v, want io.ErrShortWrite", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOpenFilePagerRejectsBadLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	p, err := CreateFilePager(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := OpenFilePager(path, 48); err == nil {
		t.Fatal("misaligned page size accepted")
	}
	if _, err := OpenFilePager(filepath.Join(t.TempDir(), "missing.db"), 64); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestInvalidPageSizeRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMemPager(0) did not panic")
		}
	}()
	if _, err := CreateFilePager(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("CreateFilePager(0) accepted")
	}
	NewMemPager(0)
}

func TestMemPagerConcurrentAccess(t *testing.T) {
	p := NewMemPager(32)
	defer p.Close()
	const pages = 16
	for i := 0; i < pages; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 32)
			for i := 0; i < 200; i++ {
				id := PageID((w + i) % pages)
				for j := range buf {
					buf[j] = byte(w)
				}
				if err := p.WritePage(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := p.ReadPage(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPropWriteReadRoundTrip(t *testing.T) {
	p := NewMemPager(256)
	defer p.Close()
	id, _ := p.Alloc()
	f := func(data []byte) bool {
		page := make([]byte, 256)
		copy(page, data)
		if err := p.WritePage(id, page); err != nil {
			return false
		}
		got := make([]byte, 256)
		if err := p.ReadPage(id, got); err != nil {
			return false
		}
		return bytes.Equal(page, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
