//go:build !(linux && (amd64 || arm64))

package storage

import "io"

// readFiled reads page id, which lies below p.filed, with one ReadAt. A
// short read means the file was truncated underneath: an error, not zeros.
// Callers hold p.mu.
func (p *FilePager) readFiled(id PageID, buf []byte) error {
	got, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize))
	if got == len(buf) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// unmap has nothing to release: this path maps nothing.
func (p *FilePager) unmap() error { return nil }
