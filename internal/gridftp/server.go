package gridftp

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"net"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdmp/internal/durable"
	"gdmp/internal/gsi"
	"gdmp/internal/obs"
)

// ServerMetricsPrefix names the server-side metric family.
const ServerMetricsPrefix = "gdmp_gridftp_server"

// serverMetrics holds the server's instrumentation handles.
type serverMetrics struct {
	sessions       *obs.Gauge      // authenticated control sessions
	handshakeFails *obs.Counter    // failed GSI handshakes
	transfers      *obs.CounterVec // {verb, outcome}
	bytes          *obs.CounterVec // {direction}: sent / received
	markers        *obs.Counter    // 112 performance markers emitted
	streams        *obs.Histogram  // data streams per transfer
	transferTime   *obs.Histogram  // seconds per transfer
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		sessions: r.Gauge(ServerMetricsPrefix+"_sessions",
			"Authenticated control sessions currently open."),
		handshakeFails: r.Counter(ServerMetricsPrefix+"_handshake_failures_total",
			"GSI handshakes that failed."),
		transfers: r.CounterVec(ServerMetricsPrefix+"_transfers_total",
			"Data transfers served by verb and outcome.", "verb", "outcome"),
		bytes: r.CounterVec(ServerMetricsPrefix+"_bytes_total",
			"Payload bytes served by direction.", "direction"),
		markers: r.Counter(ServerMetricsPrefix+"_markers_total",
			"112 performance markers emitted on control channels."),
		streams: r.Histogram(ServerMetricsPrefix+"_streams",
			"Parallel data streams per served transfer.", obs.LinearBuckets(1, 1, MaxParallelism)),
		transferTime: r.Histogram(ServerMetricsPrefix+"_transfer_seconds",
			"Wall-clock seconds per served transfer.", nil),
	}
}

// ACL operations checked by the server. Read covers RETR/ERET/SIZE/CKSM;
// write covers STOR/ESTO.
const (
	OpRead  gsi.Operation = "gridftp.read"
	OpWrite gsi.Operation = "gridftp.write"
)

// ServerConfig configures a GridFTP server.
type ServerConfig struct {
	// Root is the directory served; all paths are resolved inside it.
	Root string

	// Cred authenticates the server to clients.
	Cred *gsi.Credential

	// TrustRoots verify client certificate chains.
	TrustRoots []*gsi.Certificate

	// ACL authorizes OpRead/OpWrite per identity; nil denies everything.
	ACL *gsi.ACL

	// BlockSize is the extended-block payload size (DefaultBlockSize if 0).
	BlockSize int

	// MarkerBytes emits a 112 performance marker on the control channel
	// after every MarkerBytes transferred (0 disables markers).
	MarkerBytes int64

	// DataTimeout bounds how long the server waits for data connections to
	// arrive after announcing a transfer (default 10s).
	DataTimeout time.Duration

	// Logger receives diagnostics; nil discards them.
	Logger *log.Logger

	// Metrics receives the server's integrated instrumentation; nil makes
	// a private registry.
	Metrics *obs.Registry

	// Admit, when non-nil, gates the data-moving verbs (RETR, ERET, STOR,
	// ESTO) through an admission controller: it returns a release func to
	// call when the transfer finishes, or an error if the server is too
	// loaded to take the transfer now. Rejections get a transient 450
	// reply, so clients back off and retry rather than failing the pull.
	Admit func(verb string) (release func(), err error)

	// Stage, when non-nil, brings a missing file onto disk (a tape stage):
	// when SIZE, CKSM, RETR or ERET finds nothing at its path, the server
	// calls Stage with the root-relative path and then looks once more. It
	// runs before the data verbs' Admit, so a stage never holds a transfer
	// slot. An error gets a 550 reply.
	Stage func(path string) error
}

// Server is a GridFTP server instance.
type Server struct {
	cfg ServerConfig
	met *serverMetrics

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer validates the configuration and creates a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Root == "" {
		return nil, errors.New("gridftp: Root must be set")
	}
	info, err := os.Stat(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("gridftp: root: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("gridftp: root %q is not a directory", cfg.Root)
	}
	if cfg.Cred == nil {
		return nil, errors.New("gridftp: Cred must be set")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.DataTimeout <= 0 {
		cfg.DataTimeout = 10 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return &Server{
		cfg:   cfg,
		met:   newServerMetrics(cfg.Metrics),
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Serve accepts control connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close() // Close ran first and could not: the listener is ours
		return errors.New("gridftp: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveControl(conn)
		}()
	}
}

// Close stops the server and terminates open sessions.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// session holds per-control-connection state.
type session struct {
	srv  *Server
	ctl  *controlConn // over peer.Conn, the protected session
	conn net.Conn     // the raw control connection
	peer *gsi.Peer

	parallelism int
	bufferSize  int

	// passive rendezvous for the next transfer
	passive *passiveListener

	// active (PORT) target for the next transfer
	portToken string
	portAddr  string

	ctlMu sync.Mutex // serializes control-channel writes (markers vs replies)
}

// passiveListener is a data-connection rendezvous created by PASV.
type passiveListener struct {
	token string
	ln    net.Listener
}

func (p *passiveListener) close() {
	if p != nil && p.ln != nil {
		p.ln.Close()
	}
}

func (s *Server) serveControl(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	conn.SetDeadline(time.Now().Add(30 * time.Second))
	peer, err := gsi.Handshake(conn, s.cfg.Cred, s.cfg.TrustRoots, false)
	if err != nil {
		s.met.handshakeFails.Inc()
		s.cfg.Logger.Printf("gridftp: handshake from %v failed: %v", conn.RemoteAddr(), err)
		return
	}
	conn.SetDeadline(time.Time{})
	s.met.sessions.Inc()
	defer s.met.sessions.Dec()

	sess := &session{
		srv:         s,
		ctl:         newControlConn(peer.Conn),
		conn:        conn,
		peer:        peer,
		parallelism: DefaultParallelism,
	}
	defer func() { sess.passive.close() }()

	if err := sess.reply(220, "gdmp-gridftp ready, authenticated as %s", peer.Identity); err != nil {
		return
	}
	for {
		line, err := sess.ctl.readLine()
		if err != nil {
			return
		}
		verb, args, _ := strings.Cut(line, " ")
		verb = strings.ToUpper(strings.TrimSpace(verb))
		if verb == "QUIT" {
			sess.reply(codeClosing, "goodbye")
			return
		}
		if err := sess.dispatch(verb, strings.TrimSpace(args)); err != nil {
			s.cfg.Logger.Printf("gridftp: session %s: %v", peer.Base, err)
			return
		}
	}
}

// reply sends a response line, serialized against marker emission.
func (se *session) reply(code int, format string, args ...interface{}) error {
	se.ctlMu.Lock()
	defer se.ctlMu.Unlock()
	return se.ctl.reply(code, format, args...)
}

// authorize checks the session's identity for an operation.
func (se *session) authorize(op gsi.Operation) bool {
	return se.srv.cfg.ACL != nil && se.srv.cfg.ACL.Authorized(se.peer.Base, op)
}

// transferArgs parses the arguments of a verb that takes decimal fields
// before its path ("<off> <len> <path>", "<len> <path>"): each field is a
// non-negative int64 ended by one space, stored through the matching
// pointer, and the path is the rest of the line, verbatim, so it may hold
// spaces. ok is false when a field is missing or malformed.
func transferArgs(args string, fields ...*int64) (path string, ok bool) {
	for _, field := range fields {
		word, rest, found := strings.Cut(args, " ")
		n, err := strconv.ParseInt(word, 10, 64)
		if !found || err != nil || n < 0 {
			return "", false
		}
		*field, args = n, rest
	}
	return args, true
}

// resolve maps a client path into the served root, rejecting escapes.
func (se *session) resolve(p string) (string, error) {
	clean := path.Clean("/" + strings.TrimSpace(p))
	if clean == "/" {
		return "", errors.New("empty path")
	}
	return filepath.Join(se.srv.cfg.Root, filepath.FromSlash(clean)), nil
}

// stage runs the Stage hook for a read verb whose file is missing. An
// unauthorized session, a malformed argument and a file on disk skip it:
// the verb itself answers those.
func (se *session) stage(verb, args string) error {
	if se.srv.cfg.Stage == nil || !se.authorize(OpRead) {
		return nil
	}
	var off, length int64
	switch verb {
	case "ERET":
		p, ok := transferArgs(args, &off, &length)
		if !ok {
			return nil
		}
		args = p
	case "CKSM":
		if p, ranged := transferArgs(args, &off, &length); ranged {
			args = p
		}
	}
	p, err := se.resolve(args)
	if err != nil {
		return nil
	}
	if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	rel, err := filepath.Rel(se.srv.cfg.Root, p)
	if err != nil {
		return nil
	}
	return se.srv.cfg.Stage(filepath.ToSlash(rel))
}

func (se *session) dispatch(verb, args string) error {
	switch verb {
	case "SIZE", "CKSM", "RETR", "ERET":
		if err := se.stage(verb, args); err != nil {
			return se.reply(codeNoFile, "stage failed: %v", err)
		}
	}
	switch verb {
	case "RETR", "ERET", "STOR", "ESTO":
		if se.srv.cfg.Admit != nil {
			release, err := se.srv.cfg.Admit(verb)
			if err != nil {
				return se.reply(codeBusy, "server overloaded, retry later: %v", err)
			}
			defer release()
		}
	}
	switch verb {
	case "NOOP":
		return se.reply(codeOK, "ok")
	case "SBUF":
		return se.cmdSBUF(args)
	case "OPTS":
		return se.cmdOPTS(args)
	case "PASV":
		return se.cmdPASV()
	case "PORT":
		return se.cmdPORT(args)
	case "SIZE":
		return se.cmdSIZE(args)
	case "CKSM":
		return se.cmdCKSM(args)
	case "RETR":
		return se.cmdRETR(args)
	case "ERET":
		return se.cmdERET(args)
	case "STOR":
		return se.cmdSTOR(args, false)
	case "ESTO":
		return se.cmdSTOR(args, true)
	default:
		return se.reply(codeBadCmd, "unknown command %q", verb)
	}
}

func (se *session) cmdSBUF(args string) error {
	n, err := strconv.Atoi(args)
	if err != nil || n < 1024 || n > 64<<20 {
		return se.reply(codeBadArgs, "SBUF wants a size in [1024, 64MiB]")
	}
	se.bufferSize = n
	return se.reply(codeOK, "buffer size %d", n)
}

func (se *session) cmdOPTS(args string) error {
	name, val, _ := strings.Cut(args, " ")
	if !strings.EqualFold(name, "PARALLEL") {
		return se.reply(codeBadArgs, "unknown option %q", name)
	}
	n, err := strconv.Atoi(strings.TrimSpace(val))
	if err != nil || n < 1 || n > MaxParallelism {
		return se.reply(codeBadArgs, "parallelism must be in [1, %d]", MaxParallelism)
	}
	se.parallelism = n
	return se.reply(codeOK, "parallelism %d", n)
}

func (se *session) cmdPASV() error {
	se.passive.close()
	se.passive = nil
	host, _, err := net.SplitHostPort(se.conn.LocalAddr().String())
	if err != nil {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return se.reply(codeProtoErr, "cannot open data listener: %v", err)
	}
	token, err := newToken()
	if err != nil {
		ln.Close()
		return se.reply(codeLocalErr, "token: %v", err)
	}
	se.passive = &passiveListener{token: token, ln: ln}
	se.portToken, se.portAddr = "", ""
	return se.reply(codePassive, "%s %s", token, ln.Addr().String())
}

func (se *session) cmdPORT(args string) error {
	fields := strings.Fields(args)
	if len(fields) != 2 {
		return se.reply(codeBadArgs, "PORT wants <token> <host:port>")
	}
	if _, _, err := net.SplitHostPort(fields[1]); err != nil {
		return se.reply(codeBadArgs, "bad address %q", fields[1])
	}
	se.portToken, se.portAddr = fields[0], fields[1]
	se.passive.close()
	se.passive = nil
	return se.reply(codeOK, "active mode to %s", fields[1])
}

func (se *session) cmdSIZE(args string) error {
	if !se.authorize(OpRead) {
		return se.reply(codeDenied, "not authorized for read")
	}
	p, err := se.resolve(args)
	if err != nil {
		return se.reply(codeBadArgs, "bad path: %v", err)
	}
	info, err := os.Stat(p)
	if err != nil || info.IsDir() {
		return se.reply(codeNoFile, "no such file")
	}
	return se.reply(codeStat, "%d", info.Size())
}

func (se *session) cmdCKSM(args string) error {
	if !se.authorize(OpRead) {
		return se.reply(codeDenied, "not authorized for read")
	}
	// "<off> <len> <path>" asks for a range; anything else names the whole
	// file. The client sends the whole-file form with a leading '/', so a
	// path whose first two words are numbers never reads as a range.
	var off, length int64
	pathArg, ranged := transferArgs(args, &off, &length)
	if !ranged {
		pathArg, length = args, -1
	}
	p, err := se.resolve(pathArg)
	if err != nil {
		return se.reply(codeBadArgs, "bad path: %v", err)
	}
	f, err := os.Open(p)
	if err != nil {
		return se.reply(codeNoFile, "no such file")
	}
	defer f.Close()
	var r io.Reader = f
	if length >= 0 {
		r = io.NewSectionReader(f, off, length)
	}
	sum, err := crcOf(r)
	if err != nil {
		return se.reply(codeLocalErr, "read: %v", err)
	}
	return se.reply(codeStat, "%08x", sum)
}

// --- data transfers --------------------------------------------------------

func (se *session) cmdRETR(args string) error {
	p, err := se.resolve(args)
	if err != nil {
		return se.reply(codeBadArgs, "bad path: %v", err)
	}
	info, err := os.Stat(p)
	if err != nil || info.IsDir() {
		return se.reply(codeNoFile, "no such file")
	}
	return se.sendFile("RETR", p, 0, info.Size())
}

func (se *session) cmdERET(args string) error {
	var off, length int64
	pathArg, ok := transferArgs(args, &off, &length)
	if !ok {
		return se.reply(codeBadArgs, "ERET wants <off> <len> <path>")
	}
	p, err := se.resolve(pathArg)
	if err != nil {
		return se.reply(codeBadArgs, "bad path: %v", err)
	}
	info, err := os.Stat(p)
	if err != nil || info.IsDir() {
		return se.reply(codeNoFile, "no such file")
	}
	if length > info.Size()-off { // not off+length: that sum can overflow
		return se.reply(codeBadArgs, "range [%d,%d) beyond EOF %d", off, off+length, info.Size())
	}
	return se.sendFile("ERET", p, off, length)
}

// openDataConns establishes the session's data connections for one
// transfer: accepting on the passive listener or dialing the PORT target.
func (se *session) openDataConns(n int) ([]net.Conn, error) {
	deadline := time.Now().Add(se.srv.cfg.DataTimeout)
	conns := make([]net.Conn, 0, n)
	fail := func(err error) ([]net.Conn, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}

	if se.passive != nil {
		if tl, ok := se.passive.ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		for len(conns) < n {
			c, err := se.passive.ln.Accept()
			if err != nil {
				return fail(fmt.Errorf("accept data conn: %w", err))
			}
			c.SetDeadline(deadline)
			// The dialer authenticates the pairing with the token line.
			tok := make([]byte, len(se.passive.token)+1)
			if _, err := io.ReadFull(c, tok); err != nil {
				c.Close()
				continue
			}
			if string(tok) != se.passive.token+"\n" {
				c.Close()
				continue
			}
			c.SetDeadline(time.Time{})
			se.tuneConn(c)
			conns = append(conns, c)
		}
		return conns, nil
	}

	if se.portAddr != "" {
		for len(conns) < n {
			c, err := net.DialTimeout("tcp", se.portAddr, se.srv.cfg.DataTimeout)
			if err != nil {
				return fail(fmt.Errorf("dial data conn: %w", err))
			}
			if _, err := io.WriteString(c, se.portToken+"\n"); err != nil {
				c.Close()
				return fail(fmt.Errorf("send token: %w", err))
			}
			se.tuneConn(c)
			conns = append(conns, c)
		}
		return conns, nil
	}
	return nil, errors.New("no data channel arranged (use PASV or PORT)")
}

// tuneConn applies the negotiated socket buffer size (SBUF).
func (se *session) tuneConn(c net.Conn) {
	if se.bufferSize <= 0 {
		return
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetReadBuffer(se.bufferSize)
		tc.SetWriteBuffer(se.bufferSize)
	}
}

// transfer runs the data phase of one verb and accounts for it: announce
// the streams, open the data connections, run move over them with the 112
// marker emitter as its block observer, then reply 226 with done, or 426
// with move's error. move returns the bytes each stream moved.
func (se *session) transfer(verb, direction string, length int64,
	move func([]net.Conn, blockFunc) ([]int64, error), done string) error {
	met := se.srv.met
	start := time.Now()
	n := se.parallelism
	if err := se.reply(codeOpening, "opening %d streams size=%d", n, length); err != nil {
		return err
	}
	conns, err := se.openDataConns(n)
	if err != nil {
		met.transfers.WithLabelValues(verb, "error").Inc()
		return se.reply(codeProtoErr, "%v", err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	var mark blockFunc
	if mb := se.srv.cfg.MarkerBytes; mb > 0 {
		// Whichever stream first carries the total MarkerBytes past the
		// last marker emits the next one.
		var lastMark atomic.Int64
		mark = func(_, _, total int64) {
			if last := lastMark.Load(); total-last >= mb && lastMark.CompareAndSwap(last, total) {
				met.markers.Inc()
				se.reply(codeMarker, "%d %d", total, length)
			}
		}
	}
	perStream, err := move(conns, mark)
	var moved int64
	for _, b := range perStream {
		moved += b
	}
	met.bytes.WithLabelValues(direction).Add(moved)
	code, text, outcome := codeInterrupt, fmt.Sprintf("transfer aborted: %v", err), "error"
	if err == nil {
		code, text, outcome = codeComplete, done, "ok"
		met.streams.Observe(float64(n))
		met.transferTime.ObserveDuration(time.Since(start))
	}
	met.transfers.WithLabelValues(verb, outcome).Inc()
	return se.reply(code, "%s", text)
}

// sendFile streams [off, off+length) of the file over the arranged data
// connections, one contiguous sub-range per stream.
func (se *session) sendFile(verb, p string, off, length int64) error {
	if !se.authorize(OpRead) {
		return se.reply(codeDenied, "not authorized for read")
	}
	f, err := os.Open(p)
	if err != nil {
		return se.reply(codeNoFile, "open: %v", err)
	}
	defer f.Close()
	return se.transfer(verb, "sent", length, func(conns []net.Conn, mark blockFunc) ([]int64, error) {
		return sendBlocks(conns, f, Range{off, off + length}.split(len(conns)), se.srv.cfg.BlockSize, mark)
	}, fmt.Sprintf("transfer complete %d bytes", length))
}

// cmdSTOR receives a file. STOR replaces it atomically, accepting blocks
// inside [0, length): an interrupted put leaves the old file or none. ESTO
// writes into an existing (or new) file in place at any block offset,
// enabling partial restores and restartable puts. 226 means durable.
func (se *session) cmdSTOR(args string, extended bool) error {
	if !se.authorize(OpWrite) {
		return se.reply(codeDenied, "not authorized for write")
	}
	var length int64
	pathArg, ok := transferArgs(args, &length)
	if !ok {
		return se.reply(codeBadArgs, "wants <len> <path>")
	}
	p, err := se.resolve(pathArg)
	if err != nil {
		return se.reply(codeBadArgs, "bad path: %v", err)
	}
	if err := durable.MkdirAll(filepath.Dir(p)); err != nil {
		return se.reply(codeLocalErr, "mkdir: %v", err)
	}
	var moved []int64
	receive := func(conns []net.Conn, mark blockFunc, f *os.File, window Range) (err error) {
		moved, err = recvBlocks(conns, f, window, mark)
		var got int64
		for _, b := range moved {
			got += b
		}
		if err == nil && got != length {
			err = fmt.Errorf("expected %d bytes, received %d", length, got)
		}
		return err
	}
	verb, move := "STOR", func(conns []net.Conn, mark blockFunc) ([]int64, error) {
		err := durable.WriteAtomic(p, func(f *os.File) error { return receive(conns, mark, f, Range{0, length}) })
		if err == nil {
			err = durable.SyncDir(filepath.Dir(p))
		}
		return moved, err
	}
	if extended {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return se.reply(codeLocalErr, "open: %v", err)
		}
		defer f.Close()
		verb, move = "ESTO", func(conns []net.Conn, mark blockFunc) ([]int64, error) {
			err := receive(conns, mark, f, Range{0, math.MaxInt64})
			if err == nil {
				err = durable.Sync(f)
			}
			return moved, err
		}
	}
	return se.transfer(verb, "received", length, move, fmt.Sprintf("stored %d bytes", length))
}
