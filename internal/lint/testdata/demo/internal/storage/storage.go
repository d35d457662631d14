// Package storage mirrors the real module's error-critical storage layer
// so the droppederr fixture can discard errors from it.
package storage

// Pager is a stand-in for the real pager.
type Pager struct{}

// Flush pretends to write buffered pages.
func (p *Pager) Flush() error { return nil }

// Close pretends to release the pager.
func (p *Pager) Close() error { return nil }

// Open pretends to open a pager.
func Open(path string) (*Pager, error) { return &Pager{}, nil }

// Flusher is the one-method interface Device embeds.
type Flusher interface{ Flush() error }

// Device reaches Flush only through the embedded Flusher: the method is
// declared in this package but is not in Device's own method list.
type Device interface {
	Flusher
	Name() string
}
