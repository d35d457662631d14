package storage

import (
	"bytes"
	"errors"
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
			if err := p.WritePage(0, make([]byte, 256)); err == nil {
				t.Fatal("long buffer accepted")
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

// TestFilePagerAllocZeroAllocs pins Alloc to the pager's own zero page: a
// 500k-entry build allocates ~5000 pages and must not make 5000 garbage
// slices doing it. The file still grows by one zeroed page per call.
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
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(p.NumPages()) * 4096; fi.Size() != want || p.NumPages() != runs+2 {
		t.Fatalf("file is %d bytes over %d pages, want %d bytes over %d pages", fi.Size(), p.NumPages(), want, runs+2)
	}
	buf := make([]byte, 4096)
	if err := p.ReadPage(PageID(p.NumPages()-1), buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4096)) {
		t.Fatal("freshly allocated page is not zero")
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
