package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

// Client-side errors mapped from response statuses. A transport-level
// failure (dial, read, write) surfaces as-is; these sentinels cover the
// in-band refusals so callers can branch with errors.Is.
var (
	// ErrOverloaded means admission control rejected the request; the
	// connection stays usable — back off and retry.
	ErrOverloaded = errors.New("strserve: server overloaded")
	// ErrDraining means the server is shutting down and took no work.
	ErrDraining = errors.New("strserve: server draining")
	// ErrDeadline means the per-request deadline expired server-side.
	ErrDeadline = errors.New("strserve: deadline exceeded")
	// ErrBadRequest means the server rejected the request as malformed.
	ErrBadRequest = errors.New("strserve: bad request")
	// ErrUnavailable means a backend the request needed is down — the
	// router's in-band answer when a shard has no healthy replica.
	ErrUnavailable = errors.New("strserve: backend unavailable")
)

// Client speaks the wire protocol to one strserve server over a single
// reused TCP connection, redialing transparently after transport
// failures. Methods are safe for concurrent use; requests serialize on
// the connection (the protocol is strictly request/response, so one
// socket carries one request at a time). A request is one Write on the
// socket: the frame is assembled whole in the client's buffer.
//
// Do and the typed methods wait for the answer as long as the transport
// timeouts allow. DoContext also gives up when its context ends: the
// blocked read or write is failed from the outside and the connection
// dropped — a reply arriving later would be taken for the next request's
// — so the client is free for its next caller at that moment, and the
// next request redials.
type Client struct {
	addr string

	mu   sync.Mutex
	conn net.Conn      // guarded by mu
	br   *bufio.Reader // guarded by mu
	// guarded by mu. Per-request deadline sent to the server; 0 = server
	// default.
	timeout time.Duration
	// guarded by mu. Transport-level bounds: dialTimeout caps connection
	// establishment, ioTimeout caps one request's socket reads and writes
	// (a deadline set at the start of each round trip). 0 disables either.
	// The router sets both so a hung backend costs bounded time instead of
	// parking a scatter goroutine forever.
	dialTimeout time.Duration
	ioTimeout   time.Duration
	inBuf       []byte // guarded by mu
	outBuf      []byte // guarded by mu
}

// Dial creates a client for the server at addr. The connection is
// established lazily on first use and reused across requests.
func Dial(addr string) *Client {
	return &Client{addr: addr}
}

// SetRequestTimeout sets the per-request deadline sent with subsequent
// requests; zero restores the server's default.
func (c *Client) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// SetTransportTimeouts bounds the client's socket operations: dial caps
// connection establishment, io caps each round trip's reads and writes.
// Zero disables either bound. These are transport-level guards against a
// peer that stops responding; the in-band request deadline
// (SetRequestTimeout) remains the server-side budget.
func (c *Client) SetTransportTimeouts(dial, io time.Duration) {
	c.mu.Lock()
	c.dialTimeout = dial
	c.ioTimeout = io
	c.mu.Unlock()
}

// Close drops the connection. The client remains usable: the next
// request redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked()
}

func (c *Client) dropLocked() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.br = nil
	return err
}

func (c *Client) connectLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout) // 0 = no limit
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return nil
}

// Do sends one request and returns the decoded response, including
// in-band refusals (non-OK statuses) as responses rather than errors —
// the raw exchange the fan-out router forwards. A transport or protocol
// failure returns an error and drops the connection so the next call
// redials; so does an answer that does not fit the request (another op,
// or a batch answer whose list count is not the window count). Per the
// protocol, draining and bad-request answers also drop it (the server
// closes its side after those). req is only read.
func (c *Client) Do(req *wire.Request) (*wire.Response, error) {
	//strlint:ignore ctxprop Do is the round trip of a caller that has no context; Background's nil Done arms nothing in DoContext
	return c.DoContext(context.Background(), req)
}

// longAgo is a socket deadline that has always passed.
var longAgo = time.Unix(1, 0)

// DoContext is Do for a caller that may give up: when ctx ends with the
// request in flight, the socket's deadline is pulled into the past, the
// blocked read or write fails, the connection is dropped and the error
// returned wraps ctx's. Nothing is armed for a context that can never
// end.
func (c *Client) DoContext(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	return c.exchange(ctx, req, false)
}

// Relay is DoContext for a hop that forwards the answer rather than reads
// it: an OK search, point or batch answer comes back scanned
// (wire.ScanResponse), validated as a parse would validate it but not
// decoded, and owning the frame it arrived in; the client reads its next
// answer into a buffer of its own. Every other answer is parsed.
func (c *Client) Relay(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	return c.exchange(ctx, req, true)
}

// exchange is one round trip of DoContext, or of Relay when scan is set.
func (c *Client) exchange(ctx context.Context, req *wire.Request, scan bool) (resp *wire.Response, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The effective timeout goes into a copy: the caller's request may be
	// in use by another client, or again later under another default.
	eff := *req
	if eff.TimeoutMillis == 0 && c.timeout > 0 {
		eff.TimeoutMillis = max(uint32(c.timeout/time.Millisecond), 1)
	}
	frame, err := wire.AppendRequest(wire.BeginFrame(c.outBuf), &eff)
	if err != nil {
		return nil, err
	}
	if frame, err = wire.EndFrame(frame); err != nil {
		return nil, err
	}
	c.outBuf = frame
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	conn := c.conn
	if c.ioTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(c.ioTimeout)); err != nil {
			_ = c.dropLocked()
			return nil, err
		}
	}
	if ctx.Done() != nil {
		// The closure holds the connection itself, not the field: when it
		// runs, the client may already be on its next one.
		stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(longAgo) })
		defer func() {
			if stop() {
				return
			}
			// It ran or is about to: the deadline it sets would fail some
			// later request, so the connection is not used again, whatever
			// became of this one.
			_ = c.dropLocked()
			if err != nil {
				err = fmt.Errorf("strserve: round trip interrupted: %w (%v)", ctx.Err(), err)
			}
		}()
	}
	if _, err := conn.Write(frame); err != nil {
		_ = c.dropLocked()
		return nil, err
	}
	in, err := wire.ReadFrame(c.br, c.inBuf)
	if err != nil {
		_ = c.dropLocked()
		return nil, err
	}
	c.inBuf = in
	if scan {
		resp, err = wire.ScanResponse(in)
	} else {
		resp, err = wire.ParseResponse(in)
	}
	if err != nil {
		_ = c.dropLocked()
		return nil, err
	}
	if resp.Scanned() {
		c.inBuf = nil // the answer keeps the frame
	}
	if resp.Op != req.Op {
		_ = c.dropLocked()
		return nil, fmt.Errorf("strserve: response op %v for %v request", resp.Op, req.Op)
	}
	if resp.Status == wire.StatusOK && req.Op == wire.OpBatch && resp.Lists() != len(req.Batch) {
		// A list short would lose a window's matches without a word.
		_ = c.dropLocked()
		return nil, fmt.Errorf("strserve: %d result lists for a batch of %d windows", resp.Lists(), len(req.Batch))
	}
	if resp.Status == wire.StatusDraining || resp.Status == wire.StatusBadRequest {
		_ = c.dropLocked()
	}
	return resp, nil
}

// roundTrip is Do plus the mapping of non-OK statuses to sentinel
// errors — the convenience the typed client methods build on.
func (c *Client) roundTrip(req *wire.Request) (*wire.Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if serr := statusErr(resp); serr != nil {
		return nil, serr
	}
	return resp, nil
}

// statusErr maps a non-OK response to its sentinel error.
func statusErr(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusOverloaded:
		return ErrOverloaded
	case wire.StatusDraining:
		return ErrDraining
	case wire.StatusDeadline:
		return ErrDeadline
	case wire.StatusBadRequest:
		return fmt.Errorf("%w: %s", ErrBadRequest, resp.Err)
	case wire.StatusUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, resp.Err)
	default:
		return fmt.Errorf("strserve: server error: %s", resp.Err)
	}
}

// Search returns every indexed item intersecting q.
func (c *Client) Search(q geom.Rect) ([]wire.Item, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpSearch, Query: q})
	if err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// Count returns the number of indexed items intersecting q.
func (c *Client) Count(q geom.Rect) (uint64, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpCount, Query: q})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Insert adds one item to the served tree and returns the tree's length
// afterwards. The server must be running with mutations enabled.
func (c *Client) Insert(r geom.Rect, id uint64) (uint64, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpInsert, Query: r, ID: id})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Delete removes the item matching (r, id) exactly, reporting whether
// one was found and the tree's length afterwards. A miss is not an
// error. The server must be running with mutations enabled.
func (c *Client) Delete(r geom.Rect, id uint64) (found bool, length uint64, err error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpDelete, Query: r, ID: id})
	if err != nil {
		return false, 0, err
	}
	return resp.Found, resp.Count, nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats() (wire.Stats, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return wire.Stats{}, err
	}
	return resp.Stats, nil
}
