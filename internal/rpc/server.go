package rpc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/gsi"
	"gdmp/internal/obs"
)

// ServerMetricsPrefix prefixes every Request Manager server metric.
const ServerMetricsPrefix = "gdmp_rpc_server"

// serverMetrics instruments the Request Manager: request counts by method
// and status, per-method latency, in-flight requests, and the two
// rejection classes that precede dispatch (handshake and authorization).
type serverMetrics struct {
	requests       *obs.CounterVec   // {method, status}
	latency        *obs.HistogramVec // {method}
	inFlight       *obs.Gauge
	authFails      *obs.Counter
	handshakeFails *obs.Counter
	acceptErrs     *obs.Counter
	connsRejected  *obs.Counter
}

func newRPCServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests: r.CounterVec(ServerMetricsPrefix+"_requests_total",
			"RPC requests by method and status.", "method", "status"),
		latency: r.HistogramVec(ServerMetricsPrefix+"_request_seconds",
			"RPC request handling latency by method.", nil, "method"),
		inFlight: r.Gauge(ServerMetricsPrefix+"_in_flight",
			"RPC requests currently being dispatched."),
		authFails: r.Counter(ServerMetricsPrefix+"_auth_failures_total",
			"Requests rejected by the ACL check."),
		handshakeFails: r.Counter(ServerMetricsPrefix+"_handshake_failures_total",
			"Connections dropped during the GSI handshake."),
		acceptErrs: r.Counter("gdmp_rpc_accept_errors_total",
			"Temporary accept errors retried with backoff."),
		connsRejected: r.Counter(ServerMetricsPrefix+"_conns_rejected_total",
			"Connections refused by the concurrent-connection cap."),
	}
}

// status codes carried in response frames.
const (
	statusOK         = uint8(0)
	statusError      = uint8(1)
	statusOverloaded = uint8(2) // admission rejection: reason + retry-after
)

// request is one call as it crosses the wire, in the frame's field order.
// It is the only request layout: there are no versions to negotiate,
// because the sites of a grid upgrade together.
type request struct {
	method string
	args   []byte // the method's encoded arguments
	// budget is the caller's remaining deadline in microseconds at send
	// time (a duration, not an instant, so clock skew between sites cannot
	// corrupt it); zero means no deadline.
	budget uint64
}

func (r request) encode() []byte {
	e := Encoder{buf: make([]byte, 0, 4+len(r.method)+4+len(r.args)+8)}
	e.String(r.method)
	e.Bytes32(r.args)
	e.Uint64(r.budget)
	return e.Bytes()
}

// decodeRequest reads one request frame; a frame with a field missing or
// bytes left over is corrupt.
func decodeRequest(frame []byte) (request, error) {
	d := NewDecoder(frame)
	r := request{method: d.String(), args: d.Bytes32(), budget: d.Uint64()}
	return r, d.Finish()
}

// RemoteError is an error reported by a server-side handler and transported
// back to the caller.
type RemoteError struct {
	Method string
	// Code names the kind of failure, for a caller that must tell kinds
	// apart: the RPCCode method of the handler's error, if it has one,
	// and zero if not.
	Code uint32
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error from %s: %s", e.Method, e.Msg)
}

// Handler processes one request. The context is canceled when the server
// shuts down, so long-running handlers (replication pulls, staging) can
// abort cleanly; the peer is the authenticated caller; args is the decoded
// request payload; the handler writes its reply into resp.
type Handler func(ctx context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error

// Server is a Request Manager endpoint: it accepts connections, performs a
// GSI mutual-authentication handshake on each, authorizes each request
// against the ACL, and dispatches to registered handlers. One server
// instance backs each GDMP/replica-catalog daemon.
type Server struct {
	cred  *gsi.Credential
	roots []*gsi.Certificate
	acl   *gsi.ACL

	mu       sync.RWMutex
	handlers map[string]Handler

	lnMu     sync.Mutex
	ln       net.Listener
	closed   bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	logger   *log.Logger
	met      *serverMetrics
	TimeoutD time.Duration // per-request read/write deadline; 0 disables

	// MaxConns caps concurrent connections independent of admission, so a
	// dial flood cannot exhaust file descriptors before admission sees a
	// request (0 = unlimited). Set before Serve.
	MaxConns int

	admit    *admission.Controller
	classify func(method string) admission.Class

	baseCtx    context.Context // canceled by Close; parent of handler contexts
	baseCancel context.CancelFunc
}

// NewServer creates a Request Manager server using the given service
// credential, trust roots, and authorization table, recording into r (a
// private registry when nil).
func NewServer(cred *gsi.Credential, roots []*gsi.Certificate, acl *gsi.ACL, r *obs.Registry) *Server {
	if r == nil {
		r = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cred:       cred,
		roots:      roots,
		acl:        acl,
		handlers:   make(map[string]Handler),
		conns:      make(map[net.Conn]struct{}),
		logger:     log.New(logDiscard{}, "", 0),
		met:        newRPCServerMetrics(r),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
}

type logDiscard struct{}

func (logDiscard) Write(p []byte) (int, error) { return len(p), nil }

// SetLogger directs server diagnostics to the given logger.
func (s *Server) SetLogger(l *log.Logger) {
	if l != nil {
		s.logger = l
	}
}

// Handle registers a handler for a method name. The method doubles as the
// ACL operation checked before dispatch.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Identity returns the server's own identity.
func (s *Server) Identity() gsi.Identity { return s.cred.Identity() }

// SetAdmission installs an admission controller consulted before every
// dispatch; classify maps method names onto admission classes (nil maps
// everything to Control). Call before Serve.
func (s *Server) SetAdmission(ctrl *admission.Controller, classify func(method string) admission.Class) {
	s.admit = ctrl
	s.classify = classify
}

// Serve listens on ln until Close is called.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close() // Close ran first and could not: the listener is ours
		return errors.New("rpc: server closed")
	}
	s.ln = ln
	s.lnMu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.lnMu.Lock()
			closed := s.closed
			s.lnMu.Unlock()
			if closed {
				return nil
			}
			// Temporary accept failures (EMFILE under a dial flood, ECONNABORTED)
			// must not spin the loop hot: back off with jitter, doubling up to
			// a ceiling, and keep serving.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				s.met.acceptErrs.Inc()
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
				continue
			}
			return err
		}
		backoff = 0
		s.lnMu.Lock()
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.lnMu.Unlock()
			s.met.connsRejected.Inc()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting connections, cancels the context passed to every
// in-flight handler, and closes existing connections.
func (s *Server) Close() error {
	s.baseCancel()
	s.lnMu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()

	if s.TimeoutD > 0 {
		conn.SetDeadline(time.Now().Add(s.TimeoutD))
	}
	peer, err := gsi.Handshake(conn, s.cred, s.roots, false)
	if err != nil {
		s.met.handshakeFails.Inc()
		s.logger.Printf("rpc: handshake with %v failed: %v", conn.RemoteAddr(), err)
		return
	}
	// Deadlines and Close go to the raw conn (Close severs the session
	// without waiting on a wedged peer); frames go through the session.

	for {
		if s.TimeoutD > 0 {
			conn.SetDeadline(time.Now().Add(s.TimeoutD))
		} else {
			conn.SetDeadline(time.Time{})
		}
		frame, err := ReadFrame(peer.Conn)
		if err != nil {
			return // connection closed or timed out
		}
		req, err := decodeRequest(frame)
		if err != nil {
			s.logger.Printf("rpc: corrupt request from %s: %v", peer.Base, err)
			return
		}
		if err := WriteFrame(peer.Conn, s.dispatch(s.baseCtx, peer, req)); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(ctx context.Context, peer *gsi.Peer, req request) []byte {
	method := req.method
	s.met.inFlight.Inc()
	defer s.met.inFlight.Dec()
	defer s.met.latency.WithLabelValues(method).Time()()

	var out Encoder
	fail := func(status string, code uint32, format string, args ...interface{}) []byte {
		s.met.requests.WithLabelValues(method, status).Inc()
		out.Reset()
		out.Uint8(statusError)
		out.Uint32(code)
		out.String(fmt.Sprintf(format, args...))
		return out.Bytes()
	}
	// overload reports an admission rejection as the typed frame: class,
	// reason, retry-after.
	overload := func(ov *admission.Overloaded) []byte {
		s.met.requests.WithLabelValues(method, "overloaded").Inc()
		out.Reset()
		out.Uint8(statusOverloaded)
		out.String(ov.Class)
		out.String(ov.Reason)
		out.Uint64(uint64(ov.After / time.Microsecond))
		return out.Bytes()
	}

	s.mu.RLock()
	h, ok := s.handlers[method]
	s.mu.RUnlock()
	if !ok {
		return fail("unknown", 0, "unknown method %q", method)
	}
	if s.acl != nil {
		if err := s.acl.Check(peer.Base, gsi.Operation(method)); err != nil {
			s.met.authFails.Inc()
			return fail("unauthorized", 0, "unauthorized: %v", err)
		}
	}

	// The wire carries the remaining budget as a duration; anchor it to
	// this server's clock at receipt so cross-site clock skew is harmless.
	var absDeadline time.Time
	if budget := time.Duration(req.budget) * time.Microsecond; budget > 0 {
		absDeadline = time.Now().Add(budget)
	}
	if s.admit != nil {
		class := admission.Control
		if s.classify != nil {
			class = s.classify(method)
		}
		release, err := s.admit.Admit(ctx, class, admission.Request{Deadline: absDeadline})
		if err != nil {
			var ov *admission.Overloaded
			if !errors.As(err, &ov) {
				// Admit's only other answer: the server closed while the
				// request was queued.
				ov = &admission.Overloaded{Class: class.String(), Reason: "draining"}
			}
			return overload(ov)
		}
		defer release()
	}
	hctx := ctx
	if !absDeadline.IsZero() {
		// Shed, never execute, a request that went dead while queued: the
		// caller has already given up on it.
		if !time.Now().Before(absDeadline) {
			return overload(&admission.Overloaded{Class: "control", Reason: "expired", After: time.Millisecond})
		}
		var cancel context.CancelFunc
		hctx, cancel = context.WithDeadline(ctx, absDeadline)
		defer cancel()
	}

	out.Uint8(statusOK)
	args := NewDecoder(req.args)
	if err := h(hctx, peer, args, &out); err != nil {
		var code uint32
		var coded interface{ RPCCode() uint32 }
		if errors.As(err, &coded) {
			code = coded.RPCCode()
		}
		return fail("error", code, "%v", err)
	}
	s.met.requests.WithLabelValues(method, "ok").Inc()
	return out.Bytes()
}
