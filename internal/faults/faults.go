// Package faults is the repository's fault-injection harness: a
// deterministic, seedable net.Conn / net.Listener / dialer wrapper that
// injects the partial-failure modes that dominate wide-area Data Grid
// operation — added latency, stalled peers, mid-stream connection resets
// after an exact byte count, partial writes, refused dials, and
// asymmetric partitions that black-hole one direction mid-stream while
// the other keeps flowing.
//
// Faults are scripted per connection: an Injector hands every new
// connection (dialed or accepted) to the Script along with a ConnInfo
// describing its global ordinal, its ordinal among connections to the same
// address, and the address itself; the Script returns the Plan of faults
// for that connection. Because ordinals are assigned in creation order and
// the Injector's random source is seeded, a chaos run is replayable from
// its logged seed.
//
// Every injected fault increments gdmp_faults_injected_total{kind} in the
// harness's obs registry and an internal per-kind count readable with
// Injected, so tests can account for injected failures exactly.
package faults

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"gdmp/internal/obs"
)

// MetricsPrefix prefixes the harness's metric family.
const MetricsPrefix = "gdmp_faults"

// Fault kinds, used as the metric label and for Injected accounting.
const (
	KindDialRefused  = "dial_refused"
	KindDialDelay    = "dial_delay"
	KindLatency      = "latency"
	KindReset        = "reset"
	KindStall        = "stall"
	KindPartialWrite = "partial_write"
	KindPartition    = "partition"
	KindNoSpace      = "enospc"
)

// ErrInjected is the root of every error the harness injects; test code
// can errors.Is against it to tell injected failures from real ones.
var ErrInjected = errors.New("faults: injected failure")

// ErrDialRefused is returned for dials refused by a Plan.
var ErrDialRefused = fmt.Errorf("%w: dial refused", ErrInjected)

// ErrReset is returned once a connection's reset threshold has tripped.
var ErrReset = fmt.Errorf("%w: connection reset", ErrInjected)

// ErrPartialWrite is returned by a Write truncated by MaxWriteBytes.
var ErrPartialWrite = fmt.Errorf("%w: partial write", ErrInjected)

// ErrNoSpace is returned by a NoSpaceWriter once its byte budget is
// exhausted. It wraps both ErrInjected (so harnesses can tell it from a
// real disk-full) and syscall.ENOSPC (so production error handling that
// classifies disk-full via errors.Is takes the same path either way).
var ErrNoSpace = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)

// ConnInfo identifies one connection as it is created, so a Script can
// target it deterministically.
type ConnInfo struct {
	// Seq is the connection's 0-based ordinal across the whole Injector,
	// in creation order.
	Seq int

	// AddrSeq is the 0-based ordinal among connections to (or accepted
	// on) the same address.
	AddrSeq int

	// Network and Addr are the dial target, or the listener's own
	// address for accepted connections.
	Network, Addr string

	// Accepted is true for connections from a wrapped listener.
	Accepted bool
}

// Plan scripts the faults injected into a single connection. The zero
// Plan injects nothing.
type Plan struct {
	// RefuseDial fails the dial with ErrDialRefused (for accepted
	// connections: the connection is closed immediately).
	RefuseDial bool

	// DialDelay stalls the dial before it returns.
	DialDelay time.Duration

	// Latency is added to every Read that returns data.
	Latency time.Duration

	// ResetAfterBytes hard-closes the connection after exactly this many
	// bytes have crossed it (reads + writes combined); 0 disables.
	ResetAfterBytes int64

	// StallAfterBytes makes the connection hang for StallFor once this
	// many bytes have crossed it (a wedged-peer emulation; a deadline
	// set on the connection still fires during the stall); 0 disables.
	StallAfterBytes int64
	StallFor        time.Duration

	// MaxWriteBytes truncates the connection's first oversized Write to
	// this many bytes and returns ErrPartialWrite; 0 disables.
	MaxWriteBytes int

	// PartitionReadsAfterBytes emulates an asymmetric network partition:
	// the dial succeeds and the write direction keeps flowing, but once
	// this many bytes have been read, further Reads black-hole — they
	// block indefinitely, returning only when a deadline set on the
	// connection fires or the connection is closed. 0 disables.
	PartitionReadsAfterBytes int64

	// PartitionWritesAfterBytes black-holes the write direction instead:
	// once this many bytes have been written, further Writes report
	// success but the bytes are silently dropped. 0 disables.
	PartitionWritesAfterBytes int64
}

// Partition returns a Plan emulating the classic asymmetric WAN
// partition: the dial succeeds, n bytes arrive, and then the read
// direction black-holes while writes still flow.
func Partition(n int64) Plan {
	return Plan{PartitionReadsAfterBytes: n}
}

// Script decides the Plan for each new connection.
type Script func(c ConnInfo) Plan

// Injector wraps dialers and listeners with scripted faults.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	script   Script
	seq      int
	perAddr  map[string]int
	injected map[string]int64

	seed    int64
	metrics *obs.CounterVec
}

// Option customizes New.
type Option func(*Injector)

// WithMetrics registers the injected-fault counters in r instead of a
// private registry.
func WithMetrics(r *obs.Registry) Option {
	return func(in *Injector) {
		in.metrics = r.CounterVec(MetricsPrefix+"_injected_total",
			"Faults injected by the harness, by kind.", "kind")
	}
}

// New creates an Injector. The seed drives the harness's random source
// (exposed via Float64 for randomized Scripts) and is logged by chaos
// harnesses so failures replay exactly; script may be nil (no faults).
func New(seed int64, script Script, opts ...Option) *Injector {
	if script == nil {
		script = func(ConnInfo) Plan { return Plan{} }
	}
	in := &Injector{
		rng:      rand.New(rand.NewSource(seed)),
		script:   script,
		perAddr:  make(map[string]int),
		injected: make(map[string]int64),
		seed:     seed,
	}
	for _, o := range opts {
		o(in)
	}
	if in.metrics == nil {
		WithMetrics(obs.NewRegistry())(in)
	}
	return in
}

// Seed returns the seed the Injector was built with.
func (in *Injector) Seed() int64 { return in.seed }

// Float64 returns a deterministic pseudo-random sample for Scripts that
// randomize fault parameters.
func (in *Injector) Float64() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// Injected returns how many faults of one kind have been injected so far.
func (in *Injector) Injected(kind string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected[kind]
}

// Connections returns how many connections the Injector has scripted.
func (in *Injector) Connections() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq
}

// NoSpaceWriter returns a staging-writer wrapper that emulates the disk
// filling up mid-stage: writes land normally until the file would grow
// past limit bytes, after which every write fails with ErrNoSpace (a
// write straddling the limit persists the part that fits first, exactly
// like a real ENOSPC). Each tripped writer counts one "enospc" injection.
func (in *Injector) NoSpaceWriter(limit int64) func(io.WriterAt) io.WriterAt {
	return func(w io.WriterAt) io.WriterAt {
		return &noSpaceWriter{in: in, w: w, limit: limit}
	}
}

type noSpaceWriter struct {
	in      *Injector
	w       io.WriterAt
	limit   int64
	mu      sync.Mutex
	tripped bool
}

func (n *noSpaceWriter) WriteAt(p []byte, off int64) (int, error) {
	if off >= n.limit {
		n.trip()
		return 0, ErrNoSpace
	}
	if off+int64(len(p)) > n.limit {
		wrote, err := n.w.WriteAt(p[:n.limit-off], off)
		if err != nil {
			return wrote, err
		}
		n.trip()
		return wrote, ErrNoSpace
	}
	return n.w.WriteAt(p, off)
}

func (n *noSpaceWriter) trip() {
	n.mu.Lock()
	first := !n.tripped
	n.tripped = true
	n.mu.Unlock()
	if first {
		n.in.count(KindNoSpace)
	}
}

func (in *Injector) count(kind string) {
	in.mu.Lock()
	in.injected[kind]++
	in.mu.Unlock()
	in.metrics.WithLabelValues(kind).Inc()
}

// plan assigns ordinals and runs the script for one new connection.
func (in *Injector) plan(network, addr string, accepted bool) Plan {
	in.mu.Lock()
	info := ConnInfo{
		Seq:      in.seq,
		AddrSeq:  in.perAddr[addr],
		Network:  network,
		Addr:     addr,
		Accepted: accepted,
	}
	in.seq++
	in.perAddr[addr]++
	in.mu.Unlock()
	return in.script(info)
}

// DialFunc matches the dialer signature used across the repository.
type DialFunc func(network, addr string) (net.Conn, error)

// Dialer wraps base (net.Dial when nil) so every dialed connection runs
// under the Script.
func (in *Injector) Dialer(base DialFunc) DialFunc {
	if base == nil {
		base = net.Dial
	}
	return func(network, addr string) (net.Conn, error) {
		p := in.plan(network, addr, false)
		if p.DialDelay > 0 {
			in.count(KindDialDelay)
			time.Sleep(p.DialDelay)
		}
		if p.RefuseDial {
			in.count(KindDialRefused)
			return nil, fmt.Errorf("faults: dial %s: %w", addr, ErrDialRefused)
		}
		c, err := base(network, addr)
		if err != nil {
			return nil, err
		}
		return in.wrap(c, p), nil
	}
}

// Listener wraps ln so every accepted connection runs under the Script.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		p := l.in.plan("tcp", l.Addr().String(), true)
		if p.RefuseDial {
			l.in.count(KindDialRefused)
			c.Close()
			continue
		}
		if p.DialDelay > 0 {
			l.in.count(KindDialDelay)
			time.Sleep(p.DialDelay)
		}
		return l.in.wrap(c, p), nil
	}
}

func (in *Injector) wrap(c net.Conn, p Plan) net.Conn {
	if p == (Plan{}) {
		return c
	}
	return &conn{Conn: c, in: in, plan: p}
}

// conn applies one Plan to a live connection. Byte accounting covers both
// directions, so "reset after N bytes" triggers at the same point whether
// the wrapped side is sending or receiving.
type conn struct {
	net.Conn
	in   *Injector
	plan Plan

	mu           sync.Mutex
	bytes        int64
	readBytes    int64 // read direction only, for partition thresholds
	writeBytes   int64 // write direction only, for partition thresholds
	tripped      bool  // reset threshold crossed
	stalled      bool  // stall already served
	latencyNoted bool
	partialDone  bool
	partitioned  bool // partition fault counted
	closed       bool
	deadline     time.Time
}

// admit returns how many of n bytes may still cross before the reset
// threshold trips, or n when no reset is scripted. Crossing the threshold
// closes the underlying connection.
func (c *conn) admit(n int) (int, error) {
	c.mu.Lock()
	if c.tripped {
		c.mu.Unlock()
		return 0, ErrReset
	}
	if c.plan.ResetAfterBytes <= 0 {
		c.mu.Unlock()
		return n, nil
	}
	left := c.plan.ResetAfterBytes - c.bytes
	if left <= 0 {
		c.tripped = true
		c.mu.Unlock()
		c.in.count(KindReset)
		c.Conn.Close()
		return 0, ErrReset
	}
	if int64(n) > left {
		n = int(left)
	}
	c.mu.Unlock()
	return n, nil
}

// account records n transferred bytes and fires the stall fault when its
// threshold is crossed.
func (c *conn) account(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.bytes += int64(n)
	stall := c.plan.StallAfterBytes > 0 && !c.stalled && c.bytes >= c.plan.StallAfterBytes
	if stall {
		c.stalled = true
	}
	c.mu.Unlock()
	if stall {
		c.in.count(KindStall)
		c.stallWait()
	}
}

// stallWait blocks for StallFor, honoring any deadline set on the
// connection (so a per-operation control deadline still fires while the
// peer appears wedged).
func (c *conn) stallWait() {
	end := time.Now().Add(c.plan.StallFor)
	for {
		now := time.Now()
		if !now.Before(end) {
			return
		}
		c.mu.Lock()
		dl := c.deadline
		c.mu.Unlock()
		if !dl.IsZero() && now.After(dl) {
			return
		}
		step := 2 * time.Millisecond
		if rem := end.Sub(now); rem < step {
			step = rem
		}
		time.Sleep(step)
	}
}

// notePartition counts the partition fault once per connection.
func (c *conn) notePartition() {
	c.mu.Lock()
	first := !c.partitioned
	c.partitioned = true
	c.mu.Unlock()
	if first {
		c.in.count(KindPartition)
	}
}

// blackhole blocks like a partitioned link: nothing ever arrives, and
// the call returns only when a deadline set on the connection fires or
// the connection is closed (a context cancel severing tracked
// connections unblocks a reader wedged here).
func (c *conn) blackhole() error {
	for {
		c.mu.Lock()
		closed, dl := c.closed, c.deadline
		c.mu.Unlock()
		if closed {
			return net.ErrClosed
		}
		if !dl.IsZero() && time.Now().After(dl) {
			return os.ErrDeadlineExceeded
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *conn) Read(p []byte) (int, error) {
	n, err := c.admit(len(p))
	if err != nil {
		return 0, err
	}
	if n == 0 && len(p) > 0 {
		return 0, nil
	}
	if c.plan.PartitionReadsAfterBytes > 0 {
		c.mu.Lock()
		left := c.plan.PartitionReadsAfterBytes - c.readBytes
		c.mu.Unlock()
		if left <= 0 {
			c.notePartition()
			return 0, c.blackhole()
		}
		if int64(n) > left {
			n = int(left)
		}
	}
	if c.plan.Latency > 0 {
		c.mu.Lock()
		first := !c.latencyNoted
		c.latencyNoted = true
		c.mu.Unlock()
		if first {
			c.in.count(KindLatency)
		}
		time.Sleep(c.plan.Latency)
	}
	got, err := c.Conn.Read(p[:n])
	c.mu.Lock()
	c.readBytes += int64(got)
	c.mu.Unlock()
	c.account(got)
	return got, err
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.admit(len(p))
	if err != nil {
		return 0, err
	}
	if c.plan.PartitionWritesAfterBytes > 0 {
		c.mu.Lock()
		left := c.plan.PartitionWritesAfterBytes - c.writeBytes
		c.mu.Unlock()
		if left <= 0 {
			// The link swallows the bytes: report success, send nothing.
			c.notePartition()
			return len(p), nil
		}
		if int64(n) > left {
			wrote, err := c.writeReal(p[:int(left)])
			if err != nil {
				return wrote, err
			}
			c.notePartition()
			return len(p), nil
		}
	}
	partial := false
	if c.plan.MaxWriteBytes > 0 && n > c.plan.MaxWriteBytes {
		c.mu.Lock()
		if !c.partialDone {
			c.partialDone = true
			partial = true
			n = c.plan.MaxWriteBytes
		}
		c.mu.Unlock()
	}
	wrote, err := c.writeReal(p[:n])
	if err != nil {
		return wrote, err
	}
	if partial {
		c.in.count(KindPartialWrite)
		return wrote, ErrPartialWrite
	}
	if wrote < len(p) {
		// The reset threshold truncated this write; finishing the rest
		// would cross it, so trip now.
		c.mu.Lock()
		c.tripped = true
		c.mu.Unlock()
		c.in.count(KindReset)
		c.Conn.Close()
		return wrote, ErrReset
	}
	return wrote, nil
}

// writeReal sends bytes on the underlying connection with per-direction
// and combined byte accounting (shared by the normal write path and the
// partition boundary write).
func (c *conn) writeReal(p []byte) (int, error) {
	wrote, err := c.Conn.Write(p)
	c.mu.Lock()
	c.writeBytes += int64(wrote)
	c.mu.Unlock()
	c.account(wrote)
	return wrote, err
}

func (c *conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}
