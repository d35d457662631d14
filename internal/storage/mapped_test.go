package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The contract of FilePager's read path, whichever readFiled the platform
// builds: on Linux a copy out of the file's mapping, elsewhere one ReadAt.

func newFilePager(t *testing.T, size, pages int) (*FilePager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := CreateFilePager(path, size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	for i := 0; i < pages; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	return p, path
}

func readBack(t *testing.T, p *FilePager, id PageID, want []byte) {
	t.Helper()
	got := bytes.Repeat([]byte{0xAA}, len(want))
	if err := p.ReadPage(id, got); err != nil {
		t.Fatalf("read page %d: %v", id, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("page %d holds %x…, want %x…", id, got[:4], want[:4])
	}
}

// TestFilePagerRewriteAfterRead: a page read (and so mapped) and then
// rewritten reads back its new bytes.
func TestFilePagerRewriteAfterRead(t *testing.T) {
	const size = 4096
	p, _ := newFilePager(t, size, 4)
	old, fresh := bytes.Repeat([]byte{1}, size), bytes.Repeat([]byte{2}, size)
	if err := p.WritePage(0, bytes.Repeat(old, 2)); err != nil {
		t.Fatal(err)
	}
	readBack(t, p, 1, old)
	if err := p.WritePage(1, fresh); err != nil {
		t.Fatal(err)
	}
	readBack(t, p, 1, fresh)
	readBack(t, p, 0, old)
}

// TestFilePagerRemapOnGrowth: pages written past the mapping's end force a
// remap to at least twice the filed bytes, then read back.
func TestFilePagerRemapOnGrowth(t *testing.T) {
	const size, pages = 4096, 40
	p, _ := newFilePager(t, size, pages)
	page := func(id int) []byte { return bytes.Repeat([]byte{byte(id + 1)}, size) }
	if err := p.WritePage(0, append(page(0), page(1)...)); err != nil {
		t.Fatal(err)
	}
	readBack(t, p, 1, page(1))
	first := len(p.mapped)
	for id := 2; id < pages; id++ {
		if err := p.WritePage(PageID(id), page(id)); err != nil {
			t.Fatal(err)
		}
	}
	for id := pages - 1; id >= 0; id-- {
		readBack(t, p, PageID(id), page(id))
	}
	if p.mapped != nil && (len(p.mapped) <= first || len(p.mapped) < 2*pages*size) {
		t.Fatalf("mapping is %d bytes after reading page %d (first mapping %d), want at least %d", len(p.mapped), pages-1, first, 2*pages*size)
	}
	if got := p.Stats().Reads; got != pages+1 {
		t.Fatalf("%d reads counted, want %d", got, pages+1)
	}
}

// TestFilePagerReadAfterTruncation: a file cut short underneath an open
// pager fails the read of a page below filed it no longer holds. Mapped,
// that read touches a page past the file's end and faults (SIGBUS); the
// fault guard makes it an error. Unmapped, ReadAt comes back short, which
// is an error too, not zeros. Pages the file still holds read on.
func TestFilePagerReadAfterTruncation(t *testing.T) {
	const size, pages = 4096, 8
	p, path := newFilePager(t, size, pages)
	data := bytes.Repeat([]byte{5}, pages*size)
	if err := p.WritePage(0, data); err != nil {
		t.Fatal(err)
	}
	readBack(t, p, pages-1, data[:size])
	if err := os.Truncate(path, 2*size); err != nil {
		t.Fatal(err)
	}
	for _, id := range []PageID{5, pages - 1, 2} {
		err := p.ReadPage(id, make([]byte, size))
		if err == nil || !strings.Contains(err.Error(), "storage: read page") {
			t.Fatalf("read of page %d past the truncated end: %v, want a storage read error", id, err)
		}
	}
	readBack(t, p, 1, data[:size])
	if got := p.Stats().Reads; got != 2 {
		t.Fatalf("%d reads counted, want 2: a failed read counts none", got)
	}
}

// TestFilePagerConcurrentReadersAndWriter: four readers and one writer, who
// writes runs of pages past the file's end (so the mapping grows under the
// readers) and syncs. Every page a reader sees is either unwritten (zeros)
// or whole. Run it under -race.
func TestFilePagerConcurrentReadersAndWriter(t *testing.T) {
	const size, runs, run = 512, 40, 3
	p, _ := newFilePager(t, size, runs*run)
	page := func(id int) []byte { return bytes.Repeat([]byte{byte(id%251 + 1)}, size) }
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, size)
			for {
				select {
				case <-done:
					return
				default:
				}
				id := rng.Intn(runs * run)
				if err := p.ReadPage(PageID(id), buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != 0 && !bytes.Equal(buf, page(id)) {
					t.Errorf("page %d read torn: %x…", id, buf[:4])
					return
				}
				if buf[0] == 0 && !bytes.Equal(buf, make([]byte, size)) {
					t.Errorf("unwritten page %d read non-zero bytes", id)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < runs; i++ {
		var b []byte
		for id := i * run; id < (i+1)*run; id++ {
			b = append(b, page(id)...)
		}
		if err := p.WritePage(PageID(i*run), b); err != nil {
			t.Error(err)
			break
		}
		if err := p.Sync(); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	for id := 0; id < runs*run; id++ {
		readBack(t, p, PageID(id), page(id))
	}
}

// BenchmarkFilePagerReadPage prices one miss below the buffer pool: a
// random page of a 9 902-page file of 4 KiB pages (the query workload's
// index size), ns/page. The file is written and synced first, so its
// pages sit in the page cache: the price is the copy, not the device.
func BenchmarkFilePagerReadPage(b *testing.B) {
	const size, pages, stage = 4096, 9902, 64
	p, err := CreateFilePager(filepath.Join(b.TempDir(), "pages.db"), size)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	run := make([]byte, stage*size)
	for i := 0; i < pages; i += stage {
		n := min(stage, pages-i)
		for j := 0; j < n; j++ {
			if _, err := p.Alloc(); err != nil {
				b.Fatal(err)
			}
			run[j*size] = byte(i + j)
		}
		if err := p.WritePage(PageID(i), run[:n*size]); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		b.Fatal(err)
	}
	ids := make([]PageID, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range ids {
		ids[i] = PageID(rng.Intn(pages))
	}
	buf := make([]byte, size)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ReadPage(ids[i&(len(ids)-1)], buf); err != nil {
			b.Fatal(err)
		}
	}
}
