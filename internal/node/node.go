// Package node defines the on-page layout of an R-tree node and its binary
// serialization. Exactly one node is stored per disk page (paper Section
// 2.1: "we assume that exactly one node fits per disk page").
//
// Each node stores up to n entries; each entry is a rectangle R and a
// pointer P (paper Figure 1's structure). At the leaf level (Level == 0) R
// is the bounding box of a data object and P an opaque object identifier;
// at internal levels R is the MBR of the subtree rooted at page P.
//
// Page layout (little endian):
//
//	offset 0  uint16  magic 0x5254 ("RT")
//	offset 2  uint8   format version (1)
//	offset 3  uint8   dimensionality k
//	offset 4  uint16  level (0 = leaf)
//	offset 6  uint16  entry count
//	offset 8  uint32  CRC-32 (IEEE) of the entry payload
//	offset 12 entries count * (2k float64 MBR, uint64 ref)
package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"strtree/internal/geom"
)

const (
	// Magic identifies a serialized R-tree node page.
	Magic uint16 = 0x5254
	// Version is the current page format version.
	Version uint8 = 1
	// HeaderSize is the fixed number of bytes before the entries.
	HeaderSize = 12
)

// Errors returned by Unmarshal.
var (
	ErrBadMagic    = errors.New("node: bad page magic")
	ErrBadVersion  = errors.New("node: unsupported page version")
	ErrBadChecksum = errors.New("node: page checksum mismatch")
	ErrCorrupt     = errors.New("node: corrupt page")
)

// Entry is one (rectangle, pointer) pair.
type Entry struct {
	Rect geom.Rect
	// Ref is the child page number for internal nodes and an opaque object
	// identifier for leaves.
	Ref uint64
}

// Node is the in-memory form of one page.
type Node struct {
	Level   int // 0 = leaf
	Dims    int
	Entries []Entry
}

// EntrySize returns the serialized size of one entry in k dimensions.
func EntrySize(dims int) int { return 16*dims + 8 }

// Capacity returns the maximum entries per node for a page size and
// dimensionality: the paper's n. A 4096-byte page in 2-D holds 102, so the
// paper's n = 100 fits with room to spare.
func Capacity(pageSize, dims int) int {
	return (pageSize - HeaderSize) / EntrySize(dims)
}

// Marshal serializes the node into page, which must be large enough for the
// header plus all entries. Every precondition is checked before the first
// byte is written: a failing Marshal leaves page untouched, never a new
// header over half of the old entries.
func Marshal(n *Node, page []byte) error {
	if n.Dims <= 0 || n.Dims > 255 {
		return fmt.Errorf("node: dims %d out of range", n.Dims)
	}
	if n.Level < 0 || n.Level > math.MaxUint16 {
		return fmt.Errorf("node: level %d out of range", n.Level)
	}
	if len(n.Entries) > math.MaxUint16 {
		return fmt.Errorf("node: %d entries exceed format limit", len(n.Entries))
	}
	need := HeaderSize + len(n.Entries)*EntrySize(n.Dims)
	if need > len(page) {
		return fmt.Errorf("node: %d entries need %d bytes, page is %d", len(n.Entries), need, len(page))
	}
	for i := range n.Entries {
		if r := n.Entries[i].Rect; r.Dim() != n.Dims || len(r.Max) != n.Dims {
			return fmt.Errorf("node: entry %d has dim %d, node has %d", i, r.Dim(), n.Dims)
		}
	}
	off := HeaderSize
	for i := range n.Entries {
		e := &n.Entries[i]
		for d := 0; d < n.Dims; d++ {
			binary.LittleEndian.PutUint64(page[off:], math.Float64bits(e.Rect.Min[d]))
			off += 8
			binary.LittleEndian.PutUint64(page[off:], math.Float64bits(e.Rect.Max[d]))
			off += 8
		}
		binary.LittleEndian.PutUint64(page[off:], e.Ref)
		off += 8
	}
	seal(page, n.Level, n.Dims, len(n.Entries), off)
	return nil
}

// seal finishes a page whose entry payload occupies page[HeaderSize:end]:
// the header fields, the payload CRC, and a zeroed tail, so pages are
// deterministic byte for byte. Marshal and FillRecords both end here, which
// is what keeps their images identical.
func seal(page []byte, level, dims, count, end int) {
	binary.LittleEndian.PutUint16(page[0:], Magic)
	page[2] = Version
	page[3] = uint8(dims)
	binary.LittleEndian.PutUint16(page[4:], uint16(level))
	binary.LittleEndian.PutUint16(page[6:], uint16(count))
	binary.LittleEndian.PutUint32(page[8:], crc32.ChecksumIEEE(page[HeaderSize:end]))
	clear(page[end:])
}

// FillRecords writes a fresh node image onto page from records already in
// the page layout: recs is a run of whole entries, EntrySize(dims) bytes
// each (per axis the Min then the Max word, then the ref), in the order the
// node stores them. The image is one header, one copy of recs, the payload
// CRC and a zeroed tail — byte for byte what Marshal writes for the entries
// recs decodes to, without a detour through Entry headers: the dynamic write
// path's one page writer (internal/rtree's split, forced reinsertion and
// root growth), and the canonical image rtree.Check compares each page
// with. It keeps every check Marshal and MutableView.AppendEntry make —
// dims, level and count in range, the records fit the page, every record a
// valid rectangle (FirstInvalid, as MakeView checks) — and makes all of
// them before the first byte is written, so a failing fill leaves page
// untouched. recs must not overlap page.
func FillRecords(page []byte, level, dims int, recs []byte) error {
	if dims <= 0 || dims > 255 {
		return fmt.Errorf("node: dims %d out of range", dims)
	}
	if level < 0 || level > math.MaxUint16 {
		return fmt.Errorf("node: level %d out of range", level)
	}
	size := EntrySize(dims)
	if len(recs)%size != 0 {
		return fmt.Errorf("node: %d record bytes are not whole %d-byte entries", len(recs), size)
	}
	count := len(recs) / size
	if count > math.MaxUint16 {
		return fmt.Errorf("node: %d entries exceed format limit", count)
	}
	end := HeaderSize + len(recs)
	if end > len(page) {
		return fmt.Errorf("node: %d entries need %d bytes, page is %d", count, end, len(page))
	}
	if i := FirstInvalid(recs, dims); i < count {
		return fmt.Errorf("%w: record %d has an invalid rectangle", ErrCorrupt, i)
	}
	copy(page[HeaderSize:end], recs)
	seal(page, level, dims, count, end)
	return nil
}

// Unmarshal parses a page into n, reusing n's entry storage where possible.
func Unmarshal(page []byte, n *Node) error {
	if len(page) < HeaderSize {
		return fmt.Errorf("%w: page shorter than header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint16(page[0:]) != Magic {
		return ErrBadMagic
	}
	if page[2] != Version {
		return fmt.Errorf("%w: version %d", ErrBadVersion, page[2])
	}
	dims := int(page[3])
	if dims == 0 {
		return fmt.Errorf("%w: zero dimensionality", ErrCorrupt)
	}
	level := int(binary.LittleEndian.Uint16(page[4:]))
	count := int(binary.LittleEndian.Uint16(page[6:]))
	end := HeaderSize + count*EntrySize(dims)
	if end > len(page) {
		return fmt.Errorf("%w: %d entries overflow the page", ErrCorrupt, count)
	}
	if got, want := crc32.ChecksumIEEE(page[HeaderSize:end]), binary.LittleEndian.Uint32(page[8:]); got != want {
		return fmt.Errorf("%w: crc %08x, header says %08x", ErrBadChecksum, got, want)
	}
	n.Level = level
	n.Dims = dims
	if cap(n.Entries) < count {
		n.Entries = make([]Entry, count)
	} else {
		n.Entries = n.Entries[:count]
	}
	off := HeaderSize
	for i := 0; i < count; i++ {
		e := &n.Entries[i]
		if e.Rect.Dim() != dims {
			e.Rect = geom.Rect{Min: make(geom.Point, dims), Max: make(geom.Point, dims)}
		}
		for d := 0; d < dims; d++ {
			e.Rect.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(page[off:]))
			off += 8
			e.Rect.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(page[off:]))
			off += 8
		}
		e.Ref = binary.LittleEndian.Uint64(page[off:])
		off += 8
		if !e.Rect.Valid() {
			return fmt.Errorf("%w: entry %d has invalid rectangle %v", ErrCorrupt, i, e.Rect)
		}
	}
	return nil
}
