// Package demo is the strlint test fixture: every construct below is
// annotated with the finding it must (or must not) produce.
package demo

import (
	"bytes"
	"encoding/binary"

	"demo/internal/buffer"
	"demo/internal/storage"
)

// EqualWeight fires floateq on the == operator.
func EqualWeight(a, b float64) bool {
	return a == b // want floateq
}

// DifferentWeight fires floateq on the != operator via a float32 field.
type scale struct{ factor float32 }

func (s scale) isIdentity() bool {
	return s.factor != 1 // want floateq
}

// EqualWeightIntended is the same comparison suppressed by a directive.
func EqualWeightIntended(a, b float64) bool {
	//strlint:ignore floateq bit-exact equality is this fixture's contract
	return a == b
}

// IntEqual must not fire: both operands are integers.
func IntEqual(a, b int) bool { return a == b }

// DropAll fires droppederr three ways: a plain call, a defer, and an
// encoding/binary write.
func DropAll(p *storage.Pager) {
	p.Flush()       // want droppederr
	defer p.Close() // want droppederr
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(7)) // want droppederr
}

// DropIntended is a discarded error under a directive.
func DropIntended(p *storage.Pager) {
	//strlint:ignore droppederr fixture: the error is deliberately dropped
	p.Flush()
}

// DropBatch fires droppederr two more ways, both goroutine-shaped: a
// flush fired off with a bare go statement (its error — a failed page
// write — vanishes with the goroutine), and a dropped error inside a
// goroutine body.
func DropBatch(p *storage.Pager) {
	//strlint:ignore waitpair fixture isolates droppederr; the leak is the point
	go p.Flush() // want droppederr
	//strlint:ignore waitpair fixture isolates droppederr; the leak is the point
	go func() {
		p.Flush() // want droppederr
	}()
}

// DropWritePin fires droppederr on a dropped write-pin release: the
// error from buffer.ReleaseMut reports a pin-protocol pairing bug (a
// page released that was never write-pinned), and swallowing it leaves
// a dirty page pinned forever.
func DropWritePin(p *buffer.Pool) {
	f, err := p.FetchMut(7)
	if err != nil {
		return
	}
	p.ReleaseMut(f) // want droppederr
}

// DropWritePinHandled must not fire: the release error is consumed.
func DropWritePinHandled(p *buffer.Pool) error {
	f, err := p.FetchMut(7)
	if err != nil {
		return err
	}
	return p.ReleaseMut(f)
}

// DropBatchHandled must not fire: both goroutines consume their errors.
func DropBatchHandled(p *storage.Pager, errs chan<- error) {
	go func() {
		errs <- p.Flush()
	}()
	go func() {
		if err := p.Close(); err != nil {
			errs <- err
		}
	}()
}

// DropHandled must not fire: the error is consumed.
func DropHandled(p *storage.Pager) error {
	if err := p.Flush(); err != nil {
		return err
	}
	_ = p.Close()
	return nil
}

// DropThroughInterface fires droppederr on a method reached through an
// embedded interface: storage.Device does not list Flush itself, it
// embeds storage.Flusher, so naming the package that declares the callee
// takes Device's full method set.
func DropThroughInterface(d storage.Device) {
	d.Flush() // want droppederr
}

// reading is embedded in sample, which makes sample.weight a promoted
// field.
type reading struct{ weight float64 }

type sample struct{ reading }

// Weightless fires floateq on a promoted field of a map element: the
// float is two steps of type information away (the map's element type,
// then the embedded struct's field set), and the other operand is an
// untyped integer constant.
func Weightless(m map[string]sample, k string) bool {
	return m[k].weight == 0 // want floateq
}
