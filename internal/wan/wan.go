// Package wan emulates wide-area network conditions over real sockets, so
// that integration tests and examples exercise GDMP's full socket path under
// CERN-to-ANL-like constraints (Section 6's testbed: 45 Mbps, 125 ms RTT)
// while running entirely on loopback.
//
// A Link models one shared bottleneck: every connection wrapped by the same
// Link draws from a single token bucket, so parallel streams and competing
// transfers contend for capacity exactly as the paper's flows contend for
// the production transatlantic link. Connection establishment pays one RTT,
// matching TCP handshake cost over the real path.
//
// The shaping is byte-accurate but coarse-grained (pacing at write
// granularity); precise TCP window dynamics live in internal/netsim. Use
// wan for end-to-end plumbing under realistic rates, netsim for
// figure-grade protocol behavior.
package wan

import (
	"errors"
	"net"
	"sync"
	"time"
)

// Link is a shared emulated bottleneck.
type Link struct {
	rateBytesPerSec float64
	rtt             time.Duration

	mu   sync.Mutex
	next time.Time // virtual clock: when the link is free again
}

// maxBurst is the write granularity for pacing.
const maxBurst = 32 * 1024

// NewLink creates a shaped link. rateMbps <= 0 disables rate shaping;
// rtt <= 0 disables latency emulation.
func NewLink(rateMbps float64, rtt time.Duration) *Link {
	l := &Link{rtt: rtt}
	if rateMbps > 0 {
		l.rateBytesPerSec = rateMbps * 1e6 / 8
	}
	return l
}

// CERNtoANL mirrors netsim.CERNtoANL's available capacity: the 45 Mbps
// production link minus ambient cross traffic, with a 125 ms RTT.
func CERNtoANL() *Link { return NewLink(25, 125*time.Millisecond) }

// acquire reserves transmission time for n bytes and returns how long the
// caller must wait before sending them.
func (l *Link) acquire(n int) time.Duration {
	if l.rateBytesPerSec <= 0 {
		return 0
	}
	cost := time.Duration(float64(n) / l.rateBytesPerSec * float64(time.Second))
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	wait := l.next.Sub(now)
	l.next = l.next.Add(cost)
	return wait
}

// Wrap shapes an existing connection through the link.
func (l *Link) Wrap(c net.Conn) net.Conn {
	return &conn{Conn: c, link: l}
}

// Dialer returns a dial function that establishes connections through the
// link: the dial itself pays one RTT (TCP handshake), and all subsequent
// writes are paced by the shared bucket. base defaults to net.Dial.
func (l *Link) Dialer(base func(network, addr string) (net.Conn, error)) func(network, addr string) (net.Conn, error) {
	if base == nil {
		base = net.Dial
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := base(network, addr)
		if err != nil {
			return nil, err
		}
		if l.rtt > 0 {
			time.Sleep(l.rtt)
		}
		return l.Wrap(c), nil
	}
}

// conn paces both directions through the shared link and adds half an RTT
// of propagation delay to the first transmission of each burst of activity.
// Writes are paced before sending; reads are paced after receiving, so a
// bulk download through a wrapped client connection is shaped even though
// the server side writes at full speed. One-directional bulk flows (the
// GridFTP data channels) therefore see the link rate from either side.
type conn struct {
	net.Conn
	link *Link

	mu       sync.Mutex
	lastSend time.Time
}

var errClosed = errors.New("wan: connection closed")

func (c *conn) Write(p []byte) (int, error) {
	if c.Conn == nil {
		return 0, errClosed
	}
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxBurst {
			n = maxBurst
		}
		if wait := c.link.acquire(n); wait > 0 {
			time.Sleep(wait)
		}
		c.propagationDelay()
		wrote, err := c.Conn.Write(p[:n])
		total += wrote
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

func (c *conn) Read(p []byte) (int, error) {
	if c.Conn == nil {
		return 0, errClosed
	}
	if len(p) > maxBurst {
		p = p[:maxBurst]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		if wait := c.link.acquire(n); wait > 0 {
			time.Sleep(wait)
		}
	}
	return n, err
}

// propagationDelay charges one-way latency when the connection has been
// idle, approximating the first-packet delay of a fresh burst without
// penalizing every segment of a bulk stream.
func (c *conn) propagationDelay() {
	if c.link.rtt <= 0 {
		return
	}
	c.mu.Lock()
	idle := time.Since(c.lastSend) > c.link.rtt
	c.lastSend = time.Now()
	c.mu.Unlock()
	if idle {
		time.Sleep(c.link.rtt / 2)
	}
}
