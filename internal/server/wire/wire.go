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

// Item is one query match: the indexed rectangle and its object ID.
type Item struct {
	Rect geom.Rect
	ID   uint64
}

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

func (r *reader) rect() geom.Rect {
	dims := int(r.u8())
	if r.err != nil {
		return geom.Rect{}
	}
	if dims < 1 || dims > MaxDims {
		r.fail(ErrBadGeometry)
		return geom.Rect{}
	}
	c := r.coords(2 * dims)
	lo, hi := geom.Point(c[:dims:dims]), geom.Point(c[dims:])
	for i := range lo {
		lo[i] = r.finite(r.f64())
	}
	for i := range hi {
		hi[i] = r.finite(r.f64())
	}
	if r.err != nil {
		return geom.Rect{}
	}
	for i := range lo {
		if lo[i] > hi[i] {
			r.fail(ErrBadGeometry)
			return geom.Rect{}
		}
	}
	return geom.Rect{Min: lo, Max: hi}
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

func appendRect(dst []byte, q geom.Rect) []byte {
	dst = append(dst, uint8(len(q.Min)))
	for _, v := range q.Min {
		dst = appendF64(dst, v)
	}
	for _, v := range q.Max {
		dst = appendF64(dst, v)
	}
	return dst
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

// checkRect validates a rectangle for encoding, mirroring the parser.
func checkRect(q geom.Rect) error {
	if len(q.Min) < 1 || len(q.Min) > MaxDims || len(q.Min) != len(q.Max) {
		return ErrBadGeometry
	}
	for i := range q.Min {
		lo, hi := q.Min[i], q.Max[i]
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || lo > hi {
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
	switch req.Op {
	case OpSearch, OpCount:
		if err := checkRect(req.Query); err != nil {
			return nil, err
		}
		dst = appendRect(dst, req.Query)
	case OpSearchPoint:
		if err := checkPoint(req.Point); err != nil {
			return nil, err
		}
		dst = appendPoint(dst, req.Point)
	case OpNearest:
		if err := checkPoint(req.Point); err != nil {
			return nil, err
		}
		if req.K < 1 || req.K > MaxK {
			return nil, ErrTooLarge
		}
		dst = appendPoint(dst, req.Point)
		dst = appendU32(dst, req.K)
	case OpBatch:
		if len(req.Batch) > MaxBatch {
			return nil, ErrTooLarge
		}
		dst = appendU32(dst, uint32(len(req.Batch)))
		for _, q := range req.Batch {
			if err := checkRect(q); err != nil {
				return nil, err
			}
			dst = appendRect(dst, q)
		}
	case OpStats:
		// no body
	case OpInsert, OpDelete:
		if err := checkRect(req.Query); err != nil {
			return nil, err
		}
		dst = appendRect(dst, req.Query)
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
			return nil, ErrTooLarge
		}
	case OpBatch:
		n := r.u32()
		if r.err == nil && n > MaxBatch {
			return nil, ErrTooLarge
		}
		if r.err == nil && n > 0 {
			req.Batch = make([]geom.Rect, 0, min(int(n), r.left(1+2*8)))
			for i := uint32(0); i < n && r.err == nil; i++ {
				req.Batch = append(req.Batch, r.rect())
			}
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

func appendItems(dst []byte, items []Item) ([]byte, error) {
	dst = appendU32(dst, uint32(len(items)))
	for _, it := range items {
		if err := checkRect(it.Rect); err != nil {
			return nil, err
		}
		dst = appendRect(dst, it.Rect)
		dst = appendU64(dst, it.ID)
	}
	return dst, nil
}

// minItemBytes is the shortest item on the wire: a 1-d rectangle and an ID.
const minItemBytes = 1 + 2*8 + 8

func (r *reader) items() []Item {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	// Bound the pre-allocation, not the count: large result sets arrive
	// in frames already capped by MaxFrame.
	out := make([]Item, 0, min(int(n), r.left(minItemBytes)))
	for i := uint32(0); i < n && r.err == nil; i++ {
		rect := r.rect()
		id := r.u64()
		if r.err == nil {
			out = append(out, Item{Rect: rect, ID: id})
		}
	}
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
		dst = appendU32(dst, uint32(len(resp.Neighbors)))
		for _, nb := range resp.Neighbors {
			if err := checkRect(nb.Item.Rect); err != nil {
				return nil, err
			}
			if math.IsNaN(nb.Dist) || math.IsInf(nb.Dist, 0) {
				return nil, ErrBadGeometry
			}
			dst = appendRect(dst, nb.Item.Rect)
			dst = appendU64(dst, nb.Item.ID)
			dst = appendF64(dst, nb.Dist)
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
		n := r.u32()
		if r.err == nil {
			out := make([]Neighbor, 0, min(int(n), r.left(minItemBytes+8)))
			for i := uint32(0); i < n && r.err == nil; i++ {
				rect := r.rect()
				id := r.u64()
				dist := r.finite(r.f64())
				if r.err == nil {
					out = append(out, Neighbor{Item: Item{Rect: rect, ID: id}, Dist: dist})
				}
			}
			resp.Neighbors = out
		}
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
