package rpc

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/gsi"
)

// Client is a Request Manager client: one authenticated, protected session
// with a server, over which calls are issued sequentially. Client is safe
// for concurrent use; concurrent calls are serialized on the session,
// mirroring the simple request/response protocol of GDMP's Request Manager.
// A call that fails — canceled by its own context, timed out, or broken by
// the peer — closes the session, and the next call dials a fresh one: a
// lost session costs the call that was on it, and no more.
type Client struct {
	addr  string
	cred  *gsi.Credential
	roots []*gsi.Certificate
	cfg   dialConfig
	id    gsi.Identity // the server, as the first session authenticated it

	mu sync.Mutex
	// conn is the session's raw connection, nil after a failure until the
	// next call redials: deadlines and closing, which is how a cancellation
	// severs the session, go to it. Frames go through peer.Conn, the
	// protected session over it.
	conn   net.Conn
	peer   *gsi.Peer
	closed bool
}

// DialOption customizes DialContext.
type DialOption func(*dialConfig)

type dialConfig struct {
	timeout time.Duration
	dialer  func(network, addr string) (net.Conn, error)
}

// WithTimeout sets a per-call deadline (and the dial timeout).
func WithTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithDialer substitutes the transport dialer; tests use this to insert
// WAN-emulating connections.
func WithDialer(d func(network, addr string) (net.Conn, error)) DialOption {
	return func(c *dialConfig) { c.dialer = d }
}

// DialContext connects to a Request Manager server at addr, authenticating
// with cred and verifying the server against roots. Cancellation or expiry
// of ctx aborts the dial and the security handshake of the first session,
// which is dialed here so that a wrong address or wrong trust roots fail now.
// The returned client itself is not bound to ctx; pass a context to
// CallContext per call.
func DialContext(ctx context.Context, addr string, cred *gsi.Credential, roots []*gsi.Certificate, opts ...DialOption) (*Client, error) {
	c := &Client{addr: addr, cred: cred, roots: roots, cfg: dialConfig{timeout: 30 * time.Second}}
	for _, o := range opts {
		o(&c.cfg)
	}
	if err := c.dial(ctx); err != nil {
		return nil, err
	}
	c.id = c.peer.Identity
	return c, nil
}

// dial opens and authenticates the client's session, ctx bounding both
// steps. The caller holds mu, or is DialContext.
func (c *Client) dial(ctx context.Context) error {
	dialer := c.cfg.dialer
	if dialer == nil {
		dialer = func(network, addr string) (net.Conn, error) { return new(net.Dialer).DialContext(ctx, network, addr) }
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	conn, err := dialer("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	// A canceled context must interrupt the handshake, not just the dial:
	// closing the connection unblocks any in-flight read or write.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	if c.cfg.timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.cfg.timeout))
	}
	peer, err := gsi.Handshake(conn, c.cred, c.roots, true)
	if !stop() && err == nil {
		err = net.ErrClosed // ctx ended as the handshake did, closing conn
	}
	if err != nil {
		conn.Close()
		if ctx.Err() != nil {
			return fmt.Errorf("rpc: dial %s: %w", c.addr, ctx.Err())
		}
		return err
	}
	conn.SetDeadline(time.Time{})
	c.conn, c.peer = conn, peer
	return nil
}

// drop closes the session after a failed call; the next call redials.
func (c *Client) drop() {
	c.conn.Close()
	c.conn, c.peer = nil, nil
}

// ServerIdentity returns the authenticated identity of the server.
func (c *Client) ServerIdentity() gsi.Identity { return c.id }

// CallContext invokes method with the encoded args and returns a decoder
// over the response payload. A *RemoteError is returned when the handler
// failed. Cancellation of ctx closes the session, unblocking the exchange
// immediately; a context deadline earlier than the client's own timeout
// wins. Every call carries the remaining deadline budget, and a typed
// *admission.Overloaded is returned when the server refuses the call.
func (c *Client) CallContext(ctx context.Context, method string, args *Encoder) (*Decoder, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("rpc: client closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("rpc: call %s: %w", method, err)
	}
	if c.conn == nil {
		if err := c.dial(ctx); err != nil {
			return nil, err
		}
	}
	// The connection is closed out-of-band on cancellation (net.Conn.Close
	// is safe concurrently with reads and writes), so a canceled context
	// interrupts an exchange already in flight.
	conn := c.conn
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer func() {
		if !stop() && c.conn == conn {
			c.drop() // ctx ended as the exchange did, closing conn
		}
	}()

	req := request{method: method}
	if args != nil {
		req.args = args.Bytes()
	}
	// The connection deadline is the earlier of the client's timeout and
	// the context's; the latter also crosses the wire, as a budget.
	var deadline time.Time
	if c.cfg.timeout > 0 {
		deadline = time.Now().Add(c.cfg.timeout)
	}
	if d, ok := ctx.Deadline(); ok {
		// An already dead call still carries a budget, for the server to shed.
		req.budget = uint64(max(time.Until(d), time.Microsecond) / time.Microsecond)
		if deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	conn.SetDeadline(deadline)
	fail := func(stage string, err error) (*Decoder, error) {
		c.drop()
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
			// The connection deadline and the context deadline are the
			// same instant but tick on different timers: the read can
			// time out a hair before ctx.Err() flips.
			if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
				err = context.DeadlineExceeded
			}
		}
		return nil, fmt.Errorf("rpc: %s %s: %w", stage, method, err)
	}
	if err := WriteFrame(c.peer.Conn, req.encode()); err != nil {
		return fail("send", err)
	}
	resp, err := ReadFrame(c.peer.Conn)
	if err != nil {
		return fail("receive", err)
	}
	d := NewDecoder(resp)
	switch status := d.Uint8(); status {
	case statusOK:
		return d, nil
	case statusError:
		code := d.Uint32()
		msg := d.String()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return nil, &RemoteError{Method: method, Code: code, Msg: msg}
	case statusOverloaded:
		class := d.String()
		reason := d.String()
		after := time.Duration(d.Uint64()) * time.Microsecond
		if err := d.Finish(); err != nil {
			return nil, err
		}
		return nil, &admission.Overloaded{Class: class, Reason: reason, After: after}
	default:
		return nil, fmt.Errorf("%w: unknown status %d", ErrCorrupt, status)
	}
}

// Close closes the session, waiting out a call in flight. Later calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn != nil {
		c.drop()
	}
	return nil
}
