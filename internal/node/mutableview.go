package node

// MutableView is the write-side counterpart of View: a window over the
// serialized bytes of one page that patches individual entry slots — append,
// rect update, removal — and the header CRC in place, without an
// Unmarshal → mutate → Marshal round trip. It is how internal/rtree's Insert
// and Delete write every node on a mutation's path that still has room or
// stays adequately full: a leaf append, an entry removed, an ancestor's
// rectangle brought up to its child's new MBR. The one node a mutation
// splits or force-reinserts from is rewritten whole instead, from its
// records staged off the page (FillRecords), and the one it dissolves is
// materialized, because its entries outlive the page as orphans.
//
// Byte determinism is the load-bearing contract: after any sequence of
// MutableView operations the page bytes are exactly what Marshal would have
// produced for the equivalent Node. The structural verifier's RoundTrip check
// (rtree.Check) re-marshals every page's entries and compares byte-for-byte against the raw
// page, so any divergence — a stale CRC, a non-zeroed vacated slot — is a
// test failure, not a latent mismatch. That works because Marshal zeroes the
// page tail, so the bytes beyond the payload are zero on every page this
// package ever wrote; AppendEntry writes over zeros and RemoveEntry restores
// them.
//
// Lifetime is the same pin-scope contract as View: a MutableView aliases the
// page slice and is valid only while those bytes are stable — for a
// buffer-managed page, between the buffer FetchMut that write-pinned the
// frame and the matching ReleaseMut (see internal/buffer).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"strtree/internal/geom"
)

// MutableView extends View with in-place mutation of entry slots. Construct
// with MakeMutableView; the zero value is invalid. Unlike View it uses a
// pointer receiver for mutators so the cached entry count stays coherent
// across operations on the same page.
type MutableView struct {
	View
}

// MakeMutableView validates page with exactly MakeView's checks (magic,
// version, dimensionality, count bounds, payload CRC, per-entry rectangle
// validity — same sentinel errors) and returns a mutable view over it.
func MakeMutableView(page []byte) (MutableView, error) {
	v, err := MakeView(page)
	if err != nil {
		return MutableView{}, err
	}
	return MutableView{View: v}, nil
}

// SlotCapacity returns the number of entry slots that physically fit on the
// page. The tree's configured node capacity may be smaller; AppendEntry only
// enforces the physical bound.
func (m *MutableView) SlotCapacity() int {
	return (len(m.page) - HeaderSize) / EntrySize(m.dims)
}

// AppendEntry writes (r, ref) into the next entry slot, bumps the header
// count, and extends the CRC incrementally over just the appended bytes —
// crc32.Update over the new payload suffix gives the same checksum a full
// recompute would, so the append costs O(entry), not O(page). r must have
// the page's dimensionality and be valid (no NaNs, Min <= Max per axis):
// the same gates Marshal and Unmarshal apply.
func (m *MutableView) AppendEntry(r geom.Rect, ref uint64) error {
	if r.Dim() != m.dims {
		return fmt.Errorf("node: append entry has dim %d, page has %d", r.Dim(), m.dims)
	}
	if !r.Valid() {
		return fmt.Errorf("%w: appending invalid rectangle %v", ErrCorrupt, r)
	}
	if m.count >= m.SlotCapacity() || m.count >= math.MaxUint16 {
		return fmt.Errorf("node: page full at %d entries", m.count)
	}
	off := m.entryOff(m.count)
	start := off
	for d := 0; d < m.dims; d++ {
		binary.LittleEndian.PutUint64(m.page[off:], math.Float64bits(r.Min[d]))
		off += 8
		binary.LittleEndian.PutUint64(m.page[off:], math.Float64bits(r.Max[d]))
		off += 8
	}
	binary.LittleEndian.PutUint64(m.page[off:], ref)
	off += 8
	crc := binary.LittleEndian.Uint32(m.page[8:])
	crc = crc32.Update(crc, crc32.IEEETable, m.page[start:off])
	binary.LittleEndian.PutUint32(m.page[8:], crc)
	m.count++
	binary.LittleEndian.PutUint16(m.page[6:], uint16(m.count))
	return nil
}

// SetEntryRect overwrites entry i's rectangle and recomputes the payload
// CRC. The ancestor-MBR patch of a mutation's fix-up: the child pointer
// stays, only the box grows or shrinks.
func (m *MutableView) SetEntryRect(i int, r geom.Rect) error {
	if i < 0 || i >= m.count {
		return fmt.Errorf("node: entry %d out of range [0, %d)", i, m.count)
	}
	if r.Dim() != m.dims {
		return fmt.Errorf("node: rectangle has dim %d, page has %d", r.Dim(), m.dims)
	}
	if !r.Valid() {
		return fmt.Errorf("%w: setting invalid rectangle %v", ErrCorrupt, r)
	}
	off := m.entryOff(i)
	for d := 0; d < m.dims; d++ {
		binary.LittleEndian.PutUint64(m.page[off:], math.Float64bits(r.Min[d]))
		off += 8
		binary.LittleEndian.PutUint64(m.page[off:], math.Float64bits(r.Max[d]))
		off += 8
	}
	m.rewriteCRC()
	return nil
}

// RemoveEntry deletes entry i, shifting later entries left one slot, zeroing
// the vacated slot (restoring Marshal's zeroed-tail invariant), decrementing
// the header count, and recomputing the payload CRC.
func (m *MutableView) RemoveEntry(i int) error {
	if i < 0 || i >= m.count {
		return fmt.Errorf("node: entry %d out of range [0, %d)", i, m.count)
	}
	es := EntrySize(m.dims)
	end := m.entryOff(m.count)
	off := m.entryOff(i)
	copy(m.page[off:end-es], m.page[off+es:end])
	for b := end - es; b < end; b++ {
		m.page[b] = 0
	}
	m.count--
	binary.LittleEndian.PutUint16(m.page[6:], uint16(m.count))
	m.rewriteCRC()
	return nil
}

// rewriteCRC recomputes the checksum over the full entry payload. Used by
// the mutators that cannot extend the CRC incrementally (rect patches and
// removals touch interior bytes).
func (m *MutableView) rewriteCRC() {
	end := m.entryOff(m.count)
	binary.LittleEndian.PutUint32(m.page[8:], crc32.ChecksumIEEE(m.page[HeaderSize:end]))
}
