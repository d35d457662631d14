// Package wire defines strserve's length-prefixed binary protocol: the
// request/response codec internal/server and its client speak over TCP.
//
// Framing: every message is one frame —
//
//	offset 0  uint32  payload length (little endian, <= MaxFrame)
//	offset 4  payload
//
// A writer assembles the whole frame in one buffer (BeginFrame, an
// Append* encoder, EndFrame) and hands it to the socket in one Write: with
// TCP_NODELAY a header written on its own is a segment of its own, and the
// peer wakes for it, finds no payload and parks again. A reader assumes
// nothing of the kind: ReadFrame accepts a frame split at any byte.
//
// Request payload:
//
//	offset 0  uint8   protocol version (1)
//	offset 1  uint8   op
//	offset 2  uint32  per-request deadline in milliseconds (0 = server default)
//	offset 6  op-specific body
//
// Response payload:
//
//	offset 0  uint8   protocol version (1)
//	offset 1  uint8   status
//	offset 2  uint8   op echo (selects the body layout)
//	offset 3  body: UTF-8 error string (uint32 length prefix) for non-OK
//	          statuses, the op's result body for StatusOK
//
// Rectangles travel as uint8 dims + 2*dims float64 (min corner then max
// corner), points as uint8 dims + dims float64, both little endian —
// the same encoding/binary conventions as internal/node's page format.
// Parsing is strict: corners must be ordered, floats finite, lengths
// bounded (MaxDims, MaxBatch, MaxFrame), and the payload consumed
// exactly, so a parsed message re-encodes to identical bytes — the
// round-trip property FuzzWireRoundTrip hammers.
//
// A parsed message shares nothing with the payload it was parsed from
// (the frame buffer is reused for the next message), and all its points
// and rectangles share one coordinate slab (geom.Slab): every corner has
// cap == len, and the message costs a handful of allocations whatever
// the number of items it carries.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"strtree/internal/geom"
)

const (
	// Version is the protocol version; the first payload byte of every
	// message.
	Version uint8 = 1
	// MaxFrame bounds a frame payload; larger frames are rejected before
	// allocation, so a corrupt or hostile length prefix cannot balloon
	// memory.
	MaxFrame = 16 << 20
	// MaxDims bounds rectangle and point dimensionality on the wire.
	MaxDims = 16
	// MaxBatch bounds the queries in one batch request.
	MaxBatch = 1 << 16
	// MaxK bounds a nearest-neighbor request's k.
	MaxK = 1 << 20
)

// Op identifies a request kind.
type Op uint8

// The protocol's operations.
const (
	OpSearch      Op = 1 // window query: all items intersecting a rectangle
	OpSearchPoint Op = 2 // point query: all items containing a point
	OpCount       Op = 3 // window query returning only the match count
	OpNearest     Op = 4 // k nearest neighbors of a point
	OpBatch       Op = 5 // many window queries in one round trip
	OpStats       Op = 6 // server counters and latency digests
	OpInsert      Op = 7 // add one item (rectangle + ID) to the tree
	OpDelete      Op = 8 // remove the item matching rectangle + ID exactly
)

// NumOps is the number of defined operations; ops are 1..NumOps.
const NumOps = 8

// String returns the op's protocol name.
func (o Op) String() string {
	switch o {
	case OpSearch:
		return "search"
	case OpSearchPoint:
		return "searchpoint"
	case OpCount:
		return "count"
	case OpNearest:
		return "nearest"
	case OpBatch:
		return "batch"
	case OpStats:
		return "stats"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// valid reports whether the op is one of the defined operations.
func (o Op) valid() bool { return o >= 1 && o <= NumOps }

// Status is a response's outcome code.
type Status uint8

// Response statuses. Only StatusOK carries a result body; the rest carry
// an error string.
const (
	StatusOK          Status = 0 // request served
	StatusOverloaded  Status = 1 // admission control rejected: in-flight cap hit
	StatusDraining    Status = 2 // server is shutting down, not accepting work
	StatusDeadline    Status = 3 // per-request deadline expired mid-query
	StatusBadRequest  Status = 4 // malformed or out-of-bounds request
	StatusInternal    Status = 5 // query execution failed server-side
	StatusUnavailable Status = 6 // a backend this request needs is down (router)
)

// maxStatus is the highest defined status; parse and encode both reject
// anything above it.
const maxStatus = StatusUnavailable

// String returns the status's protocol name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusDraining:
		return "draining"
	case StatusDeadline:
		return "deadline exceeded"
	case StatusBadRequest:
		return "bad request"
	case StatusInternal:
		return "internal error"
	case StatusUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrTrailing      = errors.New("wire: trailing bytes after message")
	ErrVersion       = errors.New("wire: unsupported protocol version")
	ErrBadOp         = errors.New("wire: unknown op")
	ErrBadStatus     = errors.New("wire: unknown status")
	ErrBadGeometry   = errors.New("wire: invalid geometry")
	ErrTooLarge      = errors.New("wire: length field exceeds protocol bound")
	ErrBadK          = fmt.Errorf("wire: nearest k outside [1, %d]", MaxK)
)

// Request is one decoded client request. Fields beyond Op and
// TimeoutMillis are op-specific: Query for OpSearch/OpCount and the
// mutation ops, Point for OpSearchPoint/OpNearest, K for OpNearest,
// Batch for OpBatch, ID for OpInsert/OpDelete.
type Request struct {
	Op            Op
	TimeoutMillis uint32
	Query         geom.Rect
	Point         geom.Point
	K             uint32
	Batch         []geom.Rect
	// ID is the item identifier for OpInsert/OpDelete; Query carries the
	// item's rectangle for both (exact match required on delete).
	ID uint64
}

// Item is one query match: the indexed rectangle and its object ID. It
// is the tree's own item type (strtree.Item), so the server encodes a
// result list as the tree returned it.
type Item = geom.Item

// Neighbor is one nearest-neighbor match with its distance.
type Neighbor struct {
	Item Item
	Dist float64
}

// Summary is a latency digest: observation count plus headline moments,
// all durations in nanoseconds.
type Summary struct {
	Count                    uint64
	Mean, P50, P95, P99, Max uint64
}

// Stats is the server's counter snapshot, the OpStats response body.
type Stats struct {
	// Admission and completion counters since server start.
	InFlight  uint64 // requests executing right now
	Accepted  uint64 // requests admitted past the semaphore
	Rejected  uint64 // fast-failed with StatusOverloaded
	TimedOut  uint64 // failed with StatusDeadline
	Failed    uint64 // failed with StatusInternal
	Completed uint64 // finished with StatusOK
	Draining  bool   // server is in its drain phase
	// Buffer-pool counters from the served tree (the paper's metrics).
	LogicalReads uint64
	DiskReads    uint64
	DiskWrites   uint64
	Evictions    uint64
	// Latency digests: all requests, then per-op indexed Op-1.
	Latency Summary
	PerOp   [NumOps]Summary
}

// Response is one decoded server response. Op echoes the request and
// selects which result field is populated; Err carries the error string
// for non-OK statuses.
type Response struct {
	Status    Status
	Op        Op
	Err       string
	Items     []Item // OpSearch, OpSearchPoint
	Count     uint64 // OpCount; tree length after OpInsert/OpDelete
	Neighbors []Neighbor
	Batch     [][]Item // OpBatch; inner slices may be nil for no matches
	Stats     Stats    // OpStats
	// Found reports whether OpDelete removed an item; exact-match misses
	// are StatusOK with Found false, not an error.
	Found bool
}

// ------------------------------------------------------------- framing

// frameHeader is the size of a frame's length prefix.
const frameHeader = 4

// BeginFrame starts a frame in buf's storage: the length prefix reserved,
// the payload to be appended behind it by an Append* encoder.
func BeginFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0)
}

// EndFrame back-fills the length prefix of a frame started with
// BeginFrame; the result goes to the connection in a single Write.
func EndFrame(frame []byte) ([]byte, error) {
	n := len(frame) - frameHeader
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return frame, nil
}

// ReadFrame reads one frame, reusing buf when it is large enough. It
// returns io.EOF only on a clean boundary (no bytes read); a frame cut
// short mid-message surfaces io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// ------------------------------------------------------- low-level codec

// reader is a bounds-checked cursor over one payload.
type reader struct {
	buf  []byte
	off  int
	err  error
	slab geom.Slab // the coordinates of every point and rectangle parsed
}

// left is how many more values of at least size bytes each the payload
// can still hold: the bound on any pre-allocation, so that a hostile
// count costs no more memory than the frame that carried it.
func (r *reader) left(size int) int {
	return (len(r.buf) - r.off) / size
}

// coords carves n coordinates out of the message's slab, whose chunks
// are sized by the coordinates the rest of the payload can hold.
func (r *reader) coords(n int) []float64 {
	return r.slab.Alloc(n, r.left(8))
}

// fail records err unless an error is recorded already; a nil err is no
// error.
func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) || r.off+n < r.off {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 {
	return math.Float64frombits(r.u64())
}

// finite rejects NaN and infinities: they cannot appear in a valid query
// and break the codec's round-trip comparability.
func (r *reader) finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(ErrBadGeometry)
	}
	return v
}

func (r *reader) point() geom.Point {
	dims := int(r.u8())
	if r.err != nil {
		return nil
	}
	if dims < 1 || dims > MaxDims {
		r.fail(ErrBadGeometry)
		return nil
	}
	p := geom.Point(r.coords(dims))
	for i := range p {
		p[i] = r.finite(r.f64())
	}
	if r.err != nil {
		return nil
	}
	return p
}

// rect decodes one rectangle: a list of one record with no tail.
func (r *reader) rect() geom.Rect {
	l := r.list(1, 0)
	if l.n == 0 {
		r.fail(l.err)
		return geom.Rect{}
	}
	c, _ := l.next()
	lo, hi := corners(c)
	return geom.Rect{Min: lo, Max: hi}
}

// A list record is a rectangle followed by tail bytes: the dims byte,
// 2·dims coordinates (min corner then max corner) and the tail (an item's
// ID, a neighbour's ID and distance, nothing for a batch window).
func stride(dims, tail int) int { return 1 + 16*dims + tail }

// records is a cursor over the valid records of one list, opened by
// reader.list with their rectangles decoded already.
type records struct {
	n      int       // valid records
	buf    []byte    // the records, back to back, from the next one on
	coords []float64 // their coordinates, in record order
	tail   int
	// err is the error the record after the n valid ones earns, nil if
	// there are count valid records. It stands only when no tail of the n
	// is invalid, which is the caller's to check, as a field-by-field read
	// would find.
	err error
}

// list opens a list of n records with tail bytes each, in two passes
// over the payload. The first walks the records' dims bytes to find how
// many are whole (at most n, however large n is), so that one slab
// allocation holds all their coordinates; the second decodes those
// coordinates in record order and stops at the first rectangle that is
// not finite and ordered. The reader is left past the whole records. The
// caller takes the l.n valid records with next, then fails the reader
// with l.err.
func (r *reader) list(n uint32, tail int) records {
	if r.err != nil {
		return records{}
	}
	buf := r.buf[r.off:]
	end, coords := 0, 0
	var l records
	for ; uint32(l.n) < n; l.n++ {
		if end == len(buf) {
			l.err = ErrTruncated
			break
		}
		d := int(buf[end])
		if d < 1 || d > MaxDims {
			l.err = ErrBadGeometry
			break
		}
		s := stride(d, tail)
		if s > len(buf)-end {
			l.err = cutErr(buf[end:], d)
			break
		}
		end += s
		coords += 2 * d
	}
	r.off += end
	l.buf, l.tail = buf[:end], tail
	l.coords = r.coords(coords)
	c := l.coords
	for i, p := 0, l.buf; i < l.n; i++ {
		d := int(p[0])
		if !getCoords(c[:2*d], p[1:]) || !ordered(c[:2*d]) {
			l.n, l.err = i, ErrBadGeometry
			break
		}
		c, p = c[2*d:], p[stride(d, tail):]
	}
	return l
}

// cutErr is the error a record cut short earns, dims byte read: what a
// field-by-field read meets first — a whole coordinate before the cut that
// is not finite, or all coordinates there and the corners inverted, is
// ErrBadGeometry; the cut itself is ErrTruncated.
func cutErr(rec []byte, dims int) error {
	var c [2 * MaxDims]float64
	whole := min((len(rec)-1)/8, 2*dims)
	if !getCoords(c[:whole], rec[1:]) || (whole == 2*dims && !ordered(c[:whole])) {
		return ErrBadGeometry
	}
	return ErrTruncated
}

// next cuts the next valid record off the list: its decoded coordinates,
// min corner then max, and its tail bytes.
func (l *records) next() (c []float64, tail []byte) {
	d := int(l.buf[0])
	s := stride(d, l.tail)
	tail, l.buf = l.buf[1+16*d:s], l.buf[s:]
	c, l.coords = l.coords[:2*d:2*d], l.coords[2*d:]
	return c, tail
}

// corners splits a rectangle's coordinates c into its min and max
// corners, each with cap == len so that an append to one cannot reach the
// other.
func corners(c []float64) (lo, hi geom.Point) {
	d := len(c) / 2
	return c[:d:d], c[d:]
}

// getCoords fills c from the little-endian float64s p starts with and
// reports whether all are finite.
func getCoords(c []float64, p []byte) bool {
	finite := true
	for i := range c {
		u := binary.LittleEndian.Uint64(p)
		p = p[8:]
		if u&expBits == expBits {
			finite = false
		}
		c[i] = math.Float64frombits(u)
	}
	return finite
}

// expBits are a float64's exponent bits, all of them set in NaN and the
// infinities alone.
const expBits = 0x7FF << 52

// isFinite reports whether v is neither NaN nor infinite.
func isFinite(v float64) bool { return math.Float64bits(v)&expBits != expBits }

// ordered reports whether the corners c holds, min then max, are ordered
// on every axis.
func ordered(c []float64) bool {
	d := len(c) / 2
	lo, hi := c[:d], c[d:2*d]
	for i := range lo {
		if lo[i] > hi[i] {
			return false
		}
	}
	return true
}

func (r *reader) str() string {
	n := r.u32()
	if n > MaxFrame {
		r.fail(ErrTooLarge)
		return ""
	}
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// done errors unless the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return ErrTrailing
	}
	return nil
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendPoint(dst []byte, p geom.Point) []byte {
	dst = append(dst, uint8(len(p)))
	for _, v := range p {
		dst = appendF64(dst, v)
	}
	return dst
}

// appendRect appends q's record: the dims byte and the corners, min then
// max. q is checked as the parser would check it, so nothing is written
// that would not parse.
func appendRect(dst []byte, q geom.Rect) ([]byte, error) {
	d := len(q.Min)
	if d < 1 || d > MaxDims || len(q.Max) != d {
		return nil, ErrBadGeometry
	}
	for i, lo := range q.Min {
		hi := q.Max[i]
		if !isFinite(lo) || !isFinite(hi) || lo > hi {
			return nil, ErrBadGeometry
		}
	}
	dst = append(dst, uint8(d))
	for _, v := range q.Min {
		dst = appendF64(dst, v)
	}
	for _, v := range q.Max {
		dst = appendF64(dst, v)
	}
	return dst, nil
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// checkPoint validates a point for encoding, mirroring the parser.
func checkPoint(p geom.Point) error {
	if len(p) < 1 || len(p) > MaxDims {
		return ErrBadGeometry
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrBadGeometry
		}
	}
	return nil
}

// ------------------------------------------------------------- requests

// AppendRequest encodes req onto dst and returns the extended slice. The
// request is validated as the parser would: geometry finite and ordered,
// lengths within protocol bounds.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	if !req.Op.valid() {
		return nil, ErrBadOp
	}
	dst = append(dst, Version, uint8(req.Op))
	dst = appendU32(dst, req.TimeoutMillis)
	var err error
	switch req.Op {
	case OpSearch, OpCount:
		if dst, err = appendRect(dst, req.Query); err != nil {
			return nil, err
		}
	case OpSearchPoint:
		if err = checkPoint(req.Point); err != nil {
			return nil, err
		}
		dst = appendPoint(dst, req.Point)
	case OpNearest:
		if err = checkPoint(req.Point); err != nil {
			return nil, err
		}
		if req.K < 1 || req.K > MaxK {
			return nil, ErrBadK
		}
		dst = appendPoint(dst, req.Point)
		dst = appendU32(dst, req.K)
	case OpBatch:
		if len(req.Batch) > MaxBatch {
			return nil, ErrTooLarge
		}
		if len(req.Batch) > 0 {
			dst = growList(dst, len(req.Batch), len(req.Batch[0].Min), 0)
		}
		dst = appendU32(dst, uint32(len(req.Batch)))
		for _, q := range req.Batch {
			if dst, err = appendRect(dst, q); err != nil {
				return nil, err
			}
		}
	case OpStats:
		// no body
	case OpInsert, OpDelete:
		if dst, err = appendRect(dst, req.Query); err != nil {
			return nil, err
		}
		dst = appendU64(dst, req.ID)
	}
	return dst, nil
}

// ParseRequest decodes one request payload, strictly: unknown versions,
// ops, malformed geometry, out-of-bound lengths and trailing bytes all
// error.
func ParseRequest(payload []byte) (*Request, error) {
	r := &reader{buf: payload}
	if v := r.u8(); r.err == nil && v != Version {
		return nil, ErrVersion
	}
	op := Op(r.u8())
	if r.err == nil && !op.valid() {
		return nil, ErrBadOp
	}
	req := &Request{Op: op, TimeoutMillis: r.u32()}
	switch op {
	case OpSearch, OpCount:
		req.Query = r.rect()
	case OpSearchPoint:
		req.Point = r.point()
	case OpNearest:
		req.Point = r.point()
		req.K = r.u32()
		if r.err == nil && (req.K < 1 || req.K > MaxK) {
			return nil, ErrBadK
		}
	case OpBatch:
		n := r.u32()
		if r.err == nil && n > MaxBatch {
			return nil, ErrTooLarge
		}
		if r.err == nil && n > 0 {
			req.Batch = r.windows(n)
		}
	case OpStats:
		// no body
	case OpInsert, OpDelete:
		req.Query = r.rect()
		req.ID = r.u64()
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// ------------------------------------------------------------ responses

// growList makes room in dst for a list of n records with tail bytes
// each whose rectangles all have dims dimensions — every list a tree
// answers — so that writing it grows dst at most once; a list of mixed
// dims grows further as append does.
func growList(dst []byte, n, dims, tail int) []byte {
	return slices.Grow(dst, 4+n*stride(min(dims, MaxDims), tail))
}

// appendItems appends a list of items: the count, then one record per
// item, the ID its tail.
func appendItems(dst []byte, items []Item) ([]byte, error) {
	if len(items) > 0 {
		dst = growList(dst, len(items), len(items[0].Rect.Min), 8)
	}
	dst = appendU32(dst, uint32(len(items)))
	var err error
	for _, it := range items {
		if dst, err = appendRect(dst, it.Rect); err != nil {
			return nil, err
		}
		dst = appendU64(dst, it.ID)
	}
	return dst, nil
}

// appendNeighbors is appendItems for nearest neighbours: each record's
// tail is the ID, then the distance.
func appendNeighbors(dst []byte, nbs []Neighbor) ([]byte, error) {
	if len(nbs) > 0 {
		dst = growList(dst, len(nbs), len(nbs[0].Item.Rect.Min), 16)
	}
	dst = appendU32(dst, uint32(len(nbs)))
	var err error
	for _, nb := range nbs {
		if !isFinite(nb.Dist) {
			return nil, ErrBadGeometry
		}
		if dst, err = appendRect(dst, nb.Item.Rect); err != nil {
			return nil, err
		}
		dst = appendF64(appendU64(dst, nb.Item.ID), nb.Dist)
	}
	return dst, nil
}

// items decodes a list of items, sized exactly.
func (r *reader) items() []Item {
	n := r.u32()
	l := r.list(n, 8)
	if r.err != nil {
		return nil
	}
	out := make([]Item, l.n)
	for i := range out {
		// Field by field: storing a whole Item is a typed copy with a bulk
		// write barrier, a third slower.
		c, tail := l.next()
		it := &out[i]
		it.Rect.Min, it.Rect.Max = corners(c)
		it.ID = binary.LittleEndian.Uint64(tail)
	}
	r.fail(l.err)
	return out
}

// neighbors decodes a list of nearest neighbours, sized exactly.
func (r *reader) neighbors() []Neighbor {
	n := r.u32()
	l := r.list(n, 16)
	if r.err != nil {
		return nil
	}
	out := make([]Neighbor, l.n)
	for i := range out {
		c, tail := l.next()
		dist := math.Float64frombits(binary.LittleEndian.Uint64(tail[8:]))
		if !isFinite(dist) {
			r.fail(ErrBadGeometry)
			return nil
		}
		nb := &out[i]
		nb.Item.Rect.Min, nb.Item.Rect.Max = corners(c)
		nb.Item.ID, nb.Dist = binary.LittleEndian.Uint64(tail), dist
	}
	r.fail(l.err)
	return out
}

// windows decodes a batch request's n windows, sized exactly.
func (r *reader) windows(n uint32) []geom.Rect {
	l := r.list(n, 0)
	out := make([]geom.Rect, l.n)
	for i := range out {
		c, _ := l.next()
		out[i].Min, out[i].Max = corners(c)
	}
	r.fail(l.err)
	return out
}

func appendSummary(dst []byte, s Summary) []byte {
	dst = appendU64(dst, s.Count)
	dst = appendU64(dst, s.Mean)
	dst = appendU64(dst, s.P50)
	dst = appendU64(dst, s.P95)
	dst = appendU64(dst, s.P99)
	return appendU64(dst, s.Max)
}

func (r *reader) summary() Summary {
	return Summary{
		Count: r.u64(),
		Mean:  r.u64(),
		P50:   r.u64(),
		P95:   r.u64(),
		P99:   r.u64(),
		Max:   r.u64(),
	}
}

func appendStats(dst []byte, s *Stats) []byte {
	dst = appendU64(dst, s.InFlight)
	dst = appendU64(dst, s.Accepted)
	dst = appendU64(dst, s.Rejected)
	dst = appendU64(dst, s.TimedOut)
	dst = appendU64(dst, s.Failed)
	dst = appendU64(dst, s.Completed)
	if s.Draining {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU64(dst, s.LogicalReads)
	dst = appendU64(dst, s.DiskReads)
	dst = appendU64(dst, s.DiskWrites)
	dst = appendU64(dst, s.Evictions)
	dst = appendSummary(dst, s.Latency)
	for i := range s.PerOp {
		dst = appendSummary(dst, s.PerOp[i])
	}
	return dst
}

func (r *reader) stats() Stats {
	var s Stats
	s.InFlight = r.u64()
	s.Accepted = r.u64()
	s.Rejected = r.u64()
	s.TimedOut = r.u64()
	s.Failed = r.u64()
	s.Completed = r.u64()
	switch r.u8() {
	case 0:
	case 1:
		s.Draining = true
	default:
		r.fail(ErrTruncated)
	}
	s.LogicalReads = r.u64()
	s.DiskReads = r.u64()
	s.DiskWrites = r.u64()
	s.Evictions = r.u64()
	s.Latency = r.summary()
	for i := range s.PerOp {
		s.PerOp[i] = r.summary()
	}
	return s
}

// AppendResponse encodes resp onto dst and returns the extended slice.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if !resp.Op.valid() {
		return nil, ErrBadOp
	}
	if resp.Status > maxStatus {
		return nil, ErrBadStatus
	}
	dst = append(dst, Version, uint8(resp.Status), uint8(resp.Op))
	if resp.Status != StatusOK {
		if len(resp.Err) > MaxFrame/2 {
			return nil, ErrTooLarge
		}
		return appendStr(dst, resp.Err), nil
	}
	var err error
	switch resp.Op {
	case OpSearch, OpSearchPoint:
		if dst, err = appendItems(dst, resp.Items); err != nil {
			return nil, err
		}
	case OpCount:
		dst = appendU64(dst, resp.Count)
	case OpNearest:
		if dst, err = appendNeighbors(dst, resp.Neighbors); err != nil {
			return nil, err
		}
	case OpBatch:
		if len(resp.Batch) > MaxBatch {
			return nil, ErrTooLarge
		}
		dst = appendU32(dst, uint32(len(resp.Batch)))
		for _, items := range resp.Batch {
			if dst, err = appendItems(dst, items); err != nil {
				return nil, err
			}
		}
	case OpStats:
		dst = appendStats(dst, &resp.Stats)
	case OpInsert:
		dst = appendU64(dst, resp.Count)
	case OpDelete:
		if resp.Found {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendU64(dst, resp.Count)
	}
	return dst, nil
}

// ParseResponse decodes one response payload with the same strictness as
// ParseRequest.
func ParseResponse(payload []byte) (*Response, error) {
	r := &reader{buf: payload}
	if v := r.u8(); r.err == nil && v != Version {
		return nil, ErrVersion
	}
	status := Status(r.u8())
	if r.err == nil && status > maxStatus {
		return nil, ErrBadStatus
	}
	op := Op(r.u8())
	if r.err == nil && !op.valid() {
		return nil, ErrBadOp
	}
	resp := &Response{Status: status, Op: op}
	if r.err == nil && status != StatusOK {
		resp.Err = r.str()
		if err := r.done(); err != nil {
			return nil, err
		}
		return resp, nil
	}
	switch op {
	case OpSearch, OpSearchPoint:
		resp.Items = r.items()
	case OpCount:
		resp.Count = r.u64()
	case OpNearest:
		resp.Neighbors = r.neighbors()
	case OpBatch:
		n := r.u32()
		if r.err == nil && n > MaxBatch {
			return nil, ErrTooLarge
		}
		if r.err == nil {
			resp.Batch = make([][]Item, 0, min(int(n), r.left(4)))
			for i := uint32(0); i < n && r.err == nil; i++ {
				resp.Batch = append(resp.Batch, r.items())
			}
		}
	case OpStats:
		resp.Stats = r.stats()
	case OpInsert:
		resp.Count = r.u64()
	case OpDelete:
		switch r.u8() {
		case 0:
		case 1:
			resp.Found = true
		default:
			r.fail(ErrTruncated)
		}
		resp.Count = r.u64()
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}
