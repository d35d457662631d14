//go:build linux && (amd64 || arm64)

package storage

import (
	"fmt"
	"runtime/debug"
	"syscall"
)

// readFiled copies page id, which lies below p.filed, out of the file's
// read-only shared mapping. It maps the file on the first such read, and
// when the page lies past the mapping it remaps to twice the filed bytes,
// so a growing file remaps a logarithmic number of times. Linux's unified
// page cache keeps the mapping coherent with WritePage's WriteAt, which is
// why this path is Linux-only. Callers hold p.mu.
func (p *FilePager) readFiled(id PageID, buf []byte) error {
	off := int(id) * p.pageSize
	end := off + len(buf)
	if end > len(p.mapped) {
		if err := p.unmap(); err != nil {
			return err
		}
		m, err := syscall.Mmap(int(p.f.Fd()), 0, 2*p.filed*p.pageSize, syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return fmt.Errorf("map %d pages: %w", 2*p.filed, err)
		}
		p.mapped = m
	}
	return copyMapped(buf, p.mapped[off:end])
}

// copyMapped copies src, a slice of the mapping, into dst. Touching a
// mapped page the file no longer holds (truncated underneath) or cannot
// read (an I/O error behind the mapping) raises SIGBUS; the fault guard
// turns that into this copy's error instead of a crash.
func copyMapped(dst, src []byte) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fault reading the file's mapping (truncated underneath, or an I/O error): %v", r)
		}
	}()
	copy(dst, src)
	return nil
}

// unmap releases the mapping, if any. Callers hold p.mu.
func (p *FilePager) unmap() error {
	if p.mapped == nil {
		return nil
	}
	m := p.mapped
	p.mapped = nil
	if err := syscall.Munmap(m); err != nil {
		return fmt.Errorf("storage: unmap: %w", err)
	}
	return nil
}
