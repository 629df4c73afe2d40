package gridftp

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gdmp/internal/durable"
	"gdmp/internal/gsi"
	"gdmp/internal/netprobe"
	"gdmp/internal/obs"
	"gdmp/internal/retry"
)

// ClientMetricsPrefix names the client-side transfer metric family; see
// package obs for the collector suffixes.
const ClientMetricsPrefix = "gdmp_gridftp_client"

// Marker is one 112 performance marker received during a transfer, the
// paper's "integrated instrumentation, for monitoring ongoing transfer
// performance".
type Marker struct {
	Bytes int64 // bytes moved so far
	Total int64 // expected total
}

// TransferStats aggregates instrumentation for one transfer.
type TransferStats struct {
	Bytes     int64
	Elapsed   time.Duration
	Streams   int
	PerStream []int64 // bytes moved by each stream
	Markers   []Marker
	Attempts  int // >1 when a reliable transfer had to restart

	// ResumedBytes counts staged-prefix bytes reused instead of
	// re-downloaded after the source confirmed their CKSM range;
	// DiscardedBytes counts staged bytes thrown away because the source
	// disagreed (or could not be asked) — the wasted-work ledger hedged
	// pulls report.
	ResumedBytes   int64
	DiscardedBytes int64

	// CRC32 is the landed file's IEEE CRC-32 as the end-to-end verification
	// pass computed it, valid when the transfer returned no error: a caller
	// with its own expectation (a catalog's CRC) compares, not re-reads.
	CRC32 uint32
}

// RateMbps returns the achieved rate in megabits per second.
func (s TransferStats) RateMbps() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / s.Elapsed.Seconds() / 1e6
}

func (s *TransferStats) merge(o TransferStats) {
	s.Bytes += o.Bytes
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
	s.Streams += o.Streams
	s.PerStream = append(s.PerStream, o.PerStream...)
	s.Markers = append(s.Markers, o.Markers...)
}

// ClientOption customizes Dial.
type ClientOption func(*Client)

// WithParallelism sets the number of parallel TCP streams per transfer.
func WithParallelism(n int) ClientOption {
	return func(c *Client) { c.parallelism = n }
}

// WithBufferSize sets the TCP socket buffer size negotiated with SBUF.
func WithBufferSize(n int) ClientOption {
	return func(c *Client) { c.bufferSize = n }
}

// WithBlockSize sets the extended-block payload size used for puts.
func WithBlockSize(n int) ClientOption {
	return func(c *Client) { c.blockSize = n }
}

// WithDialFunc substitutes the transport dialer for control and data
// connections; the WAN emulation package uses this.
func WithDialFunc(d func(network, addr string) (net.Conn, error)) ClientOption {
	return func(c *Client) { c.dial = d }
}

// WithTimeout bounds dial and control-channel operations.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithMetrics directs the client's integrated instrumentation into a
// specific registry (default: a private one).
func WithMetrics(r *obs.Registry) ClientOption {
	return func(c *Client) { c.metrics = r }
}

// Client is a GridFTP control-channel session, the programmatic equivalent
// of globus_ftp_client / globus_url_copy.
type Client struct {
	conn net.Conn     // raw control connection: deadlines, and Close severs it
	ctl  *controlConn // over the protected session on conn
	addr string

	parallelism int
	bufferSize  int
	blockSize   int
	timeout     time.Duration
	dial        func(network, addr string) (net.Conn, error)

	metrics *obs.Registry
	rec     *obs.TransferRecorder

	mu     sync.Mutex // serializes commands
	closed bool

	// Every connection the session opens — control plus data — is tracked
	// so a canceled context can sever them all at once, aborting a transfer
	// already streaming on the data channels.
	trackMu   sync.Mutex
	tracked   map[net.Conn]struct{}
	stopAbort func() bool // detaches the context watcher; set by DialContext
}

func (c *Client) track(conn net.Conn) {
	c.trackMu.Lock()
	if c.tracked == nil {
		c.tracked = make(map[net.Conn]struct{})
	}
	c.tracked[conn] = struct{}{}
	c.trackMu.Unlock()
}

func (c *Client) untrack(conn net.Conn) {
	c.trackMu.Lock()
	delete(c.tracked, conn)
	c.trackMu.Unlock()
}

// abort severs every tracked connection; blocked reads and writes on the
// control and data channels fail immediately.
func (c *Client) abort() {
	c.trackMu.Lock()
	for conn := range c.tracked {
		conn.Close()
	}
	c.trackMu.Unlock()
}

// Dial connects, authenticates with a GSI handshake, and reads the banner.
func Dial(addr string, cred *gsi.Credential, roots []*gsi.Certificate, opts ...ClientOption) (*Client, error) {
	return DialContext(context.Background(), addr, cred, roots, opts...)
}

// DialContext is Dial with the whole session bound to ctx: cancellation
// closes the control channel and any data channels opened later, so an
// in-flight transfer aborts promptly rather than running to completion.
func DialContext(ctx context.Context, addr string, cred *gsi.Credential, roots []*gsi.Certificate, opts ...ClientOption) (*Client, error) {
	c := &Client{
		parallelism: DefaultParallelism,
		blockSize:   DefaultBlockSize,
		timeout:     30 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	if c.metrics == nil {
		c.metrics = obs.NewRegistry()
	}
	c.rec = obs.NewTransferRecorder(c.metrics, ClientMetricsPrefix)
	if c.parallelism < 1 || c.parallelism > MaxParallelism {
		return nil, fmt.Errorf("gridftp: parallelism %d out of range", c.parallelism)
	}
	base := c.dial
	if base == nil {
		var d net.Dialer
		base = func(network, addr string) (net.Conn, error) {
			return d.DialContext(ctx, network, addr)
		}
	}
	c.dial = func(network, addr string) (net.Conn, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		conn, err := base(network, addr)
		if err == nil {
			c.track(conn)
		}
		return conn, err
	}
	c.addr = addr
	conn, err := c.dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gridftp: dial %s: %w", addr, err)
	}
	c.stopAbort = context.AfterFunc(ctx, c.abort)
	fail := func(err error) (*Client, error) {
		c.stopAbort()
		conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("gridftp: dial %s: %w", addr, cerr)
		}
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(c.timeout))
	peer, err := gsi.Handshake(conn, cred, roots, true)
	if err != nil {
		return fail(err)
	}
	conn.SetDeadline(time.Time{})
	c.conn = conn
	c.ctl = newControlConn(peer.Conn)
	c.armDeadline()
	code, text, err := c.ctl.readReply()
	c.clearDeadline()
	if err != nil {
		return fail(err)
	}
	if code != 220 {
		return fail(fmt.Errorf("%w: banner %d %s", ErrProtocol, code, text))
	}
	// Negotiate session parameters up front.
	if c.bufferSize > 0 {
		if err := c.simpleCmd(codeOK, "SBUF %d", c.bufferSize); err != nil {
			return fail(err)
		}
	}
	if err := c.simpleCmd(codeOK, "OPTS PARALLEL %d", c.parallelism); err != nil {
		return fail(err)
	}
	return c, nil
}

// Close sends QUIT and closes the control connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.stopAbort != nil {
		c.stopAbort()
	}
	c.armDeadline() // a hung server must not wedge Close
	c.ctl.sendLine("QUIT")
	c.ctl.readReply() // best-effort 221
	c.untrack(c.conn)
	return c.conn.Close()
}

// armDeadline bounds the next control-channel exchange with the client's
// timeout; without it, a server that hangs after the handshake stalls
// every subsequent control operation forever.
func (c *Client) armDeadline() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

// clearDeadline removes the per-operation deadline so idle sessions and
// long data transfers are not killed between exchanges.
func (c *Client) clearDeadline() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
}

// simpleCmd sends a command and expects a specific reply code.
func (c *Client) simpleCmd(want int, format string, args ...interface{}) error {
	code, text, err := c.roundTrip(format, args...)
	if err != nil {
		return err
	}
	if code != want {
		return &ReplyError{Code: code, Text: text}
	}
	return nil
}

func (c *Client) roundTrip(format string, args ...interface{}) (int, string, error) {
	c.armDeadline()
	defer c.clearDeadline()
	if err := c.ctl.sendLine(format, args...); err != nil {
		return 0, "", err
	}
	return c.ctl.readReply()
}

// SetParallelism renegotiates the stream count for subsequent transfers.
func (c *Client) SetParallelism(n int) error {
	if n < 1 || n > MaxParallelism {
		return fmt.Errorf("gridftp: parallelism %d out of range", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.simpleCmd(codeOK, "OPTS PARALLEL %d", n); err != nil {
		return err
	}
	c.parallelism = n
	return nil
}

// SetBufferSize renegotiates the TCP buffer size (SBUF).
func (c *Client) SetBufferSize(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.simpleCmd(codeOK, "SBUF %d", n); err != nil {
		return err
	}
	c.bufferSize = n
	return nil
}

// Size returns the size of a remote file.
func (c *Client) Size(path string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sizeLocked(path)
}

func (c *Client) sizeLocked(path string) (int64, error) {
	code, text, err := c.roundTrip("SIZE %s", path)
	if err != nil {
		return 0, err
	}
	if code != codeStat {
		return 0, &ReplyError{Verb: "SIZE", Code: code, Text: text}
	}
	return strconv.ParseInt(strings.TrimSpace(text), 10, 64)
}

// Checksum returns the server-side CRC-32 of a whole remote file.
func (c *Client) Checksum(path string) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checksumCmd(wholeCKSM, path)
}

// wholeCKSM asks for a whole file's CRC. The leading '/', which the
// server's path resolution absorbs, keeps a path whose first two words are
// numbers from reading as the ranged form "<off> <len> <path>".
const wholeCKSM = "CKSM /%s"

// ChecksumRange returns the CRC-32 of a byte range of a remote file.
func (c *Client) ChecksumRange(path string, off, length int64) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checksumCmd("CKSM %d %d %s", off, length, path)
}

func (c *Client) checksumCmd(format string, args ...interface{}) (uint32, error) {
	code, text, err := c.roundTrip(format, args...)
	if err != nil {
		return 0, err
	}
	if code != codeStat {
		return 0, &ReplyError{Verb: "CKSM", Code: code, Text: text}
	}
	v, err := strconv.ParseUint(strings.TrimSpace(text), 16, 32)
	return uint32(v), err
}

// ListEntry is one remote file in a listing.
type ListEntry struct {
	Name string
	Size int64
}

// List returns the files under an optional prefix directory.
func (c *Client) List(prefix string) ([]ListEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	code, text, err := c.roundTrip("NLST %s", prefix)
	if err != nil {
		return nil, err
	}
	if code != codeOpening {
		return nil, &ReplyError{Verb: "NLST", Code: code, Text: text}
	}
	n, err := strconv.Atoi(strings.TrimSpace(text))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: NLST count %q", ErrProtocol, text)
	}
	entries := make([]ListEntry, 0, min(n, 4096)) // cap wire-supplied preallocation
	defer c.clearDeadline()
	for i := 0; i < n; i++ {
		c.armDeadline()
		line, err := c.ctl.readLine()
		if err != nil {
			return nil, err
		}
		name, sizeStr, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%w: NLST line %q", ErrProtocol, line)
		}
		size, err := strconv.ParseInt(sizeStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: NLST size %q", ErrProtocol, sizeStr)
		}
		entries = append(entries, ListEntry{Name: name, Size: size})
	}
	c.armDeadline()
	code, text, err = c.ctl.readReply()
	if err != nil {
		return nil, err
	}
	if code != codeComplete {
		return nil, fmt.Errorf("%w: NLST end: %d %s", ErrProtocol, code, text)
	}
	return entries, nil
}

// Delete removes a remote file.
func (c *Client) Delete(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simpleCmd(codeFileOK, "DELE %s", path)
}

// Mkdir creates a remote directory tree.
func (c *Client) Mkdir(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simpleCmd(257, "MKD %s", path)
}

// Noop pings the server.
func (c *Client) Noop() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simpleCmd(codeOK, "NOOP")
}

// --- data transfer ---------------------------------------------------------

// passiveInfo is the parsed 229 reply.
type passiveInfo struct {
	token string
	addr  string
}

func (c *Client) enterPassive() (passiveInfo, error) {
	code, text, err := c.roundTrip("PASV")
	if err != nil {
		return passiveInfo{}, err
	}
	if code != codePassive {
		return passiveInfo{}, &ReplyError{Verb: "PASV", Code: code, Text: text}
	}
	fields := strings.Fields(text)
	if len(fields) != 2 {
		return passiveInfo{}, fmt.Errorf("%w: PASV reply %q", ErrProtocol, text)
	}
	return passiveInfo{token: fields[0], addr: fields[1]}, nil
}

// openDataConns dials n data connections to a passive endpoint and pairs
// them with the session token.
func (c *Client) openDataConns(pi passiveInfo, n int) ([]net.Conn, error) {
	conns := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		dc, err := c.dial("tcp", pi.addr)
		if err != nil {
			for _, dc2 := range conns {
				dc2.Close()
			}
			return nil, fmt.Errorf("gridftp: dial data %s: %w", pi.addr, err)
		}
		if _, err := io.WriteString(dc, pi.token+"\n"); err != nil {
			dc.Close()
			for _, dc2 := range conns {
				dc2.Close()
			}
			return nil, fmt.Errorf("gridftp: pair data conn: %w", err)
		}
		if tc, ok := dc.(*net.TCPConn); ok && c.bufferSize > 0 {
			tc.SetReadBuffer(c.bufferSize)
			tc.SetWriteBuffer(c.bufferSize)
		}
		conns = append(conns, dc)
	}
	return conns, nil
}

// parse150 extracts the stream count from a 150 reply of the form
// "opening N streams size=M". The count decides how many data connections
// the client dials, so it is held to what a client may ask for.
func parse150(text string) (streams int, err error) {
	fields := strings.Fields(text)
	for i, f := range fields {
		if f == "opening" && i+1 < len(fields) {
			streams, _ = strconv.Atoi(fields[i+1])
		}
	}
	if streams < 1 || streams > MaxParallelism {
		return 0, fmt.Errorf("%w: 150 reply %q", ErrProtocol, text)
	}
	return streams, nil
}

// Get retrieves a whole remote file, writing payload at absolute file
// offsets into dst.
func (c *Client) Get(path string, dst io.WriterAt) (TransferStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	size, err := c.sizeLocked(path)
	if err != nil {
		return TransferStats{}, err
	}
	return c.getRangeLocked(path, Range{0, size}, dst, nil, nil)
}

// GetRange retrieves [r.Start, r.End) of a remote file (partial file
// transfer). Payload is written at absolute file offsets into dst.
func (c *Client) GetRange(path string, r Range, dst io.WriterAt) (TransferStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getRangeLocked(path, r, dst, nil, nil)
}

// recorded runs one transfer under the client's transfer instrumentation.
func (c *Client) recorded(direction string, body func() (TransferStats, error)) (TransferStats, error) {
	finish := c.rec.Start()
	stats, err := body()
	finish(obs.TransferSample{
		Direction: direction, Bytes: stats.Bytes, Streams: stats.Streams,
		Elapsed: stats.Elapsed, Err: err,
	})
	return stats, err
}

// dataCommand is the control-channel dialogue every data transfer shares:
// PASV, the transfer command, as many data connections as its 150 reply
// announces, move over them, then the 112 markers and the final verdict.
// opening, when non-nil, is called on the 150 reply.
func (c *Client) dataCommand(opening func(), move func([]net.Conn) ([]int64, error), format string, args ...interface{}) (TransferStats, error) {
	start := time.Now()
	verb, _, _ := strings.Cut(format, " ")
	pi, err := c.enterPassive()
	if err != nil {
		return TransferStats{}, err
	}
	code, text, err := c.roundTrip(format, args...)
	if err != nil {
		return TransferStats{}, err
	}
	if code != codeOpening {
		// The refusal keeps its code: a 5yz is permanent, and a 450 tells
		// the caller the server's admission turned the transfer away.
		return TransferStats{}, fmt.Errorf("%w: %w", ErrTransferFailed, &ReplyError{Verb: verb, Code: code, Text: text})
	}
	streams, err := parse150(text)
	if err != nil {
		return TransferStats{}, err
	}
	if opening != nil {
		opening()
	}
	conns, err := c.openDataConns(pi, streams)
	if err != nil {
		return TransferStats{}, err
	}
	defer func() {
		for _, dc := range conns {
			dc.Close()
			c.untrack(dc)
		}
	}()

	stats := TransferStats{Streams: streams, Attempts: 1}
	var dataErr error
	stats.PerStream, dataErr = move(conns)
	for _, n := range stats.PerStream {
		stats.Bytes += n
	}
	finalCode, finalText, err := c.drainTransferReplies(&stats)
	if err != nil {
		return stats, err
	}
	stats.Elapsed = time.Since(start)
	if dataErr != nil {
		return stats, fmt.Errorf("%w: %w", ErrTransferFailed, dataErr)
	}
	if finalCode != codeComplete {
		return stats, fmt.Errorf("%w: %d %s", ErrTransferFailed, finalCode, finalText)
	}
	return stats, nil
}

// getRangeLocked performs one ERET transfer, recording it in the client's
// transfer instrumentation. Received ranges are recorded into track (when
// non-nil) as blocks land, so an interrupted transfer leaves an accurate
// restart map behind. opening (when non-nil) hears the source's 150 reply.
func (c *Client) getRangeLocked(path string, r Range, dst io.WriterAt, track *RangeSet, opening func()) (TransferStats, error) {
	return c.recorded("get", func() (TransferStats, error) {
		return c.getRangeBody(path, r, dst, track, opening)
	})
}

func (c *Client) getRangeBody(path string, r Range, dst io.WriterAt, track *RangeSet, opening func()) (TransferStats, error) {
	if r.Len() < 0 {
		return TransferStats{}, fmt.Errorf("gridftp: negative range %+v", r)
	}
	var onBlock blockFunc
	if track != nil {
		var mu sync.Mutex
		onBlock = func(off, n, _ int64) {
			mu.Lock()
			track.Add(off, off+n)
			mu.Unlock()
		}
	}
	stats, err := c.dataCommand(opening, func(conns []net.Conn) ([]int64, error) {
		return recvBlocks(conns, dst, r, onBlock)
	}, "ERET %d %d %s", r.Start, r.Len(), path)
	if err == nil && stats.Bytes != r.Len() {
		err = fmt.Errorf("%w: received %d of %d bytes", ErrTransferFailed, stats.Bytes, r.Len())
	}
	return stats, err
}

// drainTransferReplies reads control lines until a non-marker reply. The
// per-operation deadline is re-armed for every line, so a transfer may
// run longer than the timeout as long as the control channel stays alive
// (performance markers refresh it), while a wedged server still times out.
func (c *Client) drainTransferReplies(stats *TransferStats) (int, string, error) {
	defer c.clearDeadline()
	for {
		c.armDeadline()
		code, text, err := c.ctl.readReply()
		if err != nil {
			return 0, "", err
		}
		if code == codeMarker {
			var m Marker
			fmt.Sscanf(text, "%d %d", &m.Bytes, &m.Total)
			stats.Markers = append(stats.Markers, m)
			continue
		}
		return code, text, nil
	}
}

// Put stores size bytes read from src (at absolute offsets) as the remote
// file at path, one contiguous sub-range per negotiated stream.
func (c *Client) Put(path string, src io.ReaderAt, size int64) (TransferStats, error) {
	return c.putRanges("STOR", path, src, Range{0, size}.split(c.parallelism), size)
}

// PutRegion writes bytes into an existing remote file without truncating it
// (the ESTO partial-store extension). src must cover the given ranges at
// absolute offsets.
func (c *Client) PutRegion(path string, src io.ReaderAt, ranges []Range) (TransferStats, error) {
	var total int64
	for _, r := range ranges {
		total += r.Len()
	}
	return c.putRanges("ESTO", path, src, ranges, total)
}

func (c *Client) putRanges(verb, path string, src io.ReaderAt, ranges []Range, total int64) (TransferStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recorded("put", func() (TransferStats, error) {
		return c.putRangesLocked(verb, path, src, ranges, total)
	})
}

func (c *Client) putRangesLocked(verb, path string, src io.ReaderAt, ranges []Range, total int64) (TransferStats, error) {
	return c.dataCommand(nil, func(conns []net.Conn) ([]int64, error) {
		return sendBlocks(conns, src, ranges, c.blockSize, nil)
	}, verb+" %d %s", total, path)
}

// PutFile uploads a local file.
func (c *Client) PutFile(localPath, remotePath string) (TransferStats, error) {
	f, err := os.Open(localPath)
	if err != nil {
		return TransferStats{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return TransferStats{}, err
	}
	return c.Put(remotePath, f, info.Size())
}

// PartSuffix marks an in-progress download staged next to its final
// path. A transfer only renames the staging file into place after the
// end-to-end CRC passes, so the final path never holds a truncated or
// unverified file; site recovery quarantines orphaned *.part files.
const PartSuffix = durable.PartSuffix

// GetFile downloads a remote file to a local path, verifying the CRC-32
// end to end (Section 4.3's integrity check beyond TCP checksums). It is
// the single-session, non-resuming form of the landing tail
// ReliableGetFile shares (landStaged): the payload is staged at
// localPath+PartSuffix and renamed into place only after verification on
// this same session; any failure removes the staging file and never
// touches the destination.
func (c *Client) GetFile(remotePath, localPath string) (TransferStats, error) {
	f, err := os.Create(localPath + PartSuffix)
	if err != nil {
		return TransferStats{}, err
	}
	stats, err := c.Get(remotePath, f)
	stats.CRC32, err = landStaged(f, err, c, remotePath, localPath, false)
	return stats, err
}

// landStaged is the landing tail every file download ends with: fsync and
// close the staging file f, verify it end to end on session cl, rename it
// to localPath and fsync the directory (a failure of either fsync fails the
// download). err is the download's outcome so far; cl may be nil when it is
// not. A resumable download keeps the staging file of a failed transfer as
// its restart marker (recovery quarantines it if orphaned), with two
// exceptions: after ENOSPC the partial file is worthless as a marker
// (resuming onto a full disk fails the same way) and holding it only
// deepens the space crisis, and staged bytes that failed verification are
// dropped so the next attempt starts clean instead of resuming corruption.
func landStaged(f *os.File, err error, cl *Client, remotePath, localPath string, resumable bool) (uint32, error) {
	part := f.Name()
	if err == nil {
		err = durable.Sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if !resumable || errors.Is(err, syscall.ENOSPC) {
			os.Remove(part)
		}
		return 0, err
	}
	crc, err := cl.verifyLocal(remotePath, part)
	if err != nil {
		os.Remove(part)
		return 0, err
	}
	if err := durable.Rename(part, localPath); err != nil {
		if !resumable {
			os.Remove(part)
		}
		return 0, err
	}
	return crc, durable.SyncDir(filepath.Dir(localPath))
}

// verifyLocal compares the server CRC with a locally computed one and
// returns the verified value.
func (c *Client) verifyLocal(remotePath, localPath string) (uint32, error) {
	want, err := c.Checksum(remotePath)
	if err != nil {
		return 0, err
	}
	got, err := CRC32File(localPath)
	if err != nil {
		return 0, err
	}
	if got != want {
		c.rec.CRCFailure()
		return 0, fmt.Errorf("%w: local %08x, remote %08x", ErrChecksum, got, want)
	}
	return got, nil
}

// CRC32File computes the IEEE CRC-32 of a local file.
func CRC32File(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return crcOf(f)
}

// crcOf returns the IEEE CRC-32 of everything r yields; every checksum the
// package computes (CKSM replies, landed files, resume prefixes) is this.
func crcOf(r io.Reader) (uint32, error) {
	h := crc32.NewIEEE()
	_, err := io.Copy(h, r)
	return h.Sum32(), err
}

// --- reliable restartable transfer ------------------------------------------

// Attempts converts a bare attempt cap into a retry policy with the
// transfer layer's default backoff, for callers that only care about the
// bound.
func Attempts(n int) retry.Policy {
	p := retry.DefaultPolicy()
	if n > 0 {
		p.Attempts = n
	}
	return p
}

// transferRetryable is the transfer layer's default classification: every
// failure earns a fresh session except a permanent (5yz) server reply.
func transferRetryable(err error) bool {
	return !permanentReply(err) && retry.DefaultRetryable(err)
}

// ReliableGetFile is the Data Mover contract of Section 4.3 — a secure,
// restartable transfer verified end to end by CRC — made crash-safe and
// resumable. Each attempt runs on the one session connect dials for it
// (connect must return a new authenticated client bound to the context it
// is given):
//
//   - SIZE, and on the first session that answers it, one judgement of
//     any prefix an earlier call left staged (see trustPrefix);
//   - ERET of exactly the byte ranges not yet on disk: the restart map
//     outlives a failed attempt, so the next one re-requests only the gaps;
//   - the landing CKSM (landStaged): the payload lands at
//     localPath+PartSuffix and is renamed into place only after the CRC
//     matches, so the destination never holds a truncated or unverified
//     file.
//
// A failed attempt's session is closed before the policy's backoff, and
// canceling ctx severs the active session's connections and stops further
// attempts. A failed call keeps the staging file for a later call to
// resume (ENOSPC aside); a landing mismatch removes it and returns
// ErrChecksum, not retried here. The returned stats aggregate all attempts.
func ReliableGetFile(ctx context.Context, connect func(context.Context) (*Client, error), remotePath, localPath string, pol retry.Policy) (TransferStats, error) {
	return ReliableGetFileOpts(ctx, connect, remotePath, localPath, pol, GetFileOptions{})
}

// GetFileOptions tunes ReliableGetFileOpts beyond the policy.
type GetFileOptions struct {
	// Progress, when non-nil, is called as payload lands with the
	// cumulative number of bytes present in the staging file (a verified
	// resumed prefix counts, reported before the first new byte lands).
	// Calls arrive from transfer goroutines; the callback must be cheap
	// and safe for concurrent use. Hedged pulls use it as the liveness
	// signal their stall watchdog watches.
	Progress func(total int64)

	// Opening, when non-nil, is called each time the source accepts a
	// ranged transfer (its 150 reply), before the data streams are
	// dialed: from then on bytes are due. Hedged pulls start their stall
	// clock there.
	Opening func()

	// WrapWriter, when non-nil, wraps the staging-file writer before any
	// payload lands. Fault-injection harnesses use it to emulate storage
	// failures (e.g. faults.Injector.NoSpaceWriter) without touching the
	// real filesystem behavior.
	WrapWriter func(io.WriterAt) io.WriterAt
}

// progressWriterAt reports cumulative bytes written through it.
type progressWriterAt struct {
	dst   io.WriterAt
	total atomic.Int64
	fn    func(int64)
}

func (p *progressWriterAt) WriteAt(b []byte, off int64) (int, error) {
	n, err := p.dst.WriteAt(b, off)
	if n > 0 {
		p.fn(p.total.Add(int64(n)))
	}
	return n, err
}

// ReliableGetFileOpts is ReliableGetFile with options.
func ReliableGetFileOpts(ctx context.Context, connect func(context.Context) (*Client, error), remotePath, localPath string, pol retry.Policy, opt GetFileOptions) (TransferStats, error) {
	f, err := os.OpenFile(localPath+PartSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return TransferStats{}, err
	}
	var staged int64 // left by an earlier call; judged with the first SIZE
	if info, err := f.Stat(); err == nil {
		staged = info.Size()
	}
	dst := io.WriterAt(f)
	if opt.WrapWriter != nil {
		dst = opt.WrapWriter(dst)
	}
	var pw *progressWriterAt
	if opt.Progress != nil {
		pw = &progressWriterAt{dst: dst, fn: opt.Progress}
		dst = pw
	}
	if pol.Op == "" {
		pol.Op = "gridftp.get"
	}
	if pol.Retryable == nil {
		pol.Retryable = transferRetryable
	}
	var stats TransferStats
	var rs RangeSet // restart map: the bytes on disk that are trusted
	size := int64(-1)
	fetch := func(c *Client) error {
		if size < 0 {
			sz, err := c.Size(remotePath)
			if err != nil {
				return err
			}
			size = sz
			if staged > 0 && c.trustPrefix(remotePath, f, staged, size) {
				rs.Add(0, staged)
				stats.ResumedBytes = staged
				if pw != nil {
					pw.total.Store(staged)
					opt.Progress(staged)
				}
			} else if staged > 0 {
				// Best-effort: ERET rewrites [0, size) regardless, and a
				// longer leftover fails the landing CKSM.
				f.Truncate(0)
				stats.DiscardedBytes = staged
			}
		}
		for _, missing := range rs.Missing(size) {
			c.mu.Lock()
			st, err := c.getRangeLocked(remotePath, missing, dst, &rs, opt.Opening)
			c.mu.Unlock()
			stats.merge(st)
			if err != nil {
				return err
			}
		}
		if !rs.Complete(size) {
			return fmt.Errorf("%w: incomplete (%s)", ErrTransferFailed, rs.String())
		}
		return nil
	}
	var cl *Client // the session that moved the last byte verifies the file
	err = pol.Do(ctx, func(attempt int) error {
		stats.Attempts = attempt
		c, err := connect(ctx)
		if err != nil {
			return err
		}
		if attempt > 1 {
			c.rec.Restart()
		}
		if err := fetch(c); err != nil {
			c.Close()
			return err
		}
		cl = c
		return nil
	})
	if err != nil {
		err = fmt.Errorf("gridftp: reliable get of %s: %w", remotePath, err)
	} else {
		defer cl.Close()
	}
	stats.CRC32, err = landStaged(f, err, cl, remotePath, localPath, true)
	return stats, err
}

// trustPrefix judges the first have bytes of the staging file f against
// this session's source, whose copy is size bytes long: they are trusted
// only when the source's range checksum of [0, have) matches them. Any
// doubt — the remote shrank, the ranged CKSM was refused, a local read
// failed, the checksums differ — is a no, and the caller restarts from
// byte 0. Because the session is whichever source the caller uses now,
// this is also the cross-source handshake: a prefix fetched from one
// replica is re-verified against the next before a byte is appended, and a
// disagreeing source costs the prefix (never the transfer, and never a
// quarantine). Only a checksum mismatch counts as a rejected resume.
func (c *Client) trustPrefix(path string, f *os.File, have, size int64) bool {
	if have > size {
		return false
	}
	want, err := c.ChecksumRange(path, 0, have)
	if err != nil {
		return false
	}
	got, err := crcOf(io.NewSectionReader(f, 0, have))
	if err != nil {
		return false
	}
	if got != want {
		c.rec.ResumeRejected()
		return false
	}
	c.rec.Resumed(have)
	return true
}

// AutoTune performs the paper's "automatic negotiation of TCP buffer/window
// sizes": it measures the application-level round trip with NOOP probes,
// estimates the path bandwidth by timing a partial retrieval of probePath
// (which must exist on the server and be at least probeBytes long), applies
// the RTT x bandwidth formula, and negotiates the result with SBUF. The
// chosen buffer size is returned.
func (c *Client) AutoTune(probePath string, probeBytes int64) (int, error) {
	// Two RTT estimates, take the larger: fresh TCP connects capture
	// path latency charged at connection setup (the ping analogue), NOOP
	// round trips capture per-message latency on the live session.
	rtt, err := netprobe.MeasureRTTFunc(c.Noop, 3)
	if err != nil {
		return 0, err
	}
	if dialRTT, err := netprobe.MeasureRTT(c.dial, c.addr, 2); err == nil && dialRTT > rtt {
		rtt = dialRTT
	}
	size, err := c.Size(probePath)
	if err != nil {
		return 0, err
	}
	if probeBytes > size {
		probeBytes = size
	}
	if probeBytes <= 0 {
		return 0, fmt.Errorf("gridftp: probe file %s is empty", probePath)
	}
	bw, err := netprobe.EstimateBandwidth(func(n int64) (time.Duration, error) {
		dst := discardWriterAt{}
		stats, err := c.GetRange(probePath, Range{0, n}, dst)
		if err != nil {
			return 0, err
		}
		return stats.Elapsed, nil
	}, probeBytes)
	if err != nil {
		return 0, err
	}
	buf := netprobe.OptimalBuffer(rtt, bw)
	if err := c.SetBufferSize(buf); err != nil {
		return 0, err
	}
	return buf, nil
}

// discardWriterAt throws away probe payload.
type discardWriterAt struct{}

func (discardWriterAt) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }

// --- striped transfer --------------------------------------------------------

// StripedGet fetches one file from several servers that each hold a replica,
// assigning a disjoint byte range to each server (m-hosts-to-one striping).
// clients must all be connected and remain owned by the caller.
func StripedGet(clients []*Client, path string, dst io.WriterAt) (TransferStats, error) {
	if len(clients) == 0 {
		return TransferStats{}, errors.New("gridftp: striped get needs at least one client")
	}
	clients[0].rec.Striped(len(clients))
	size, err := clients[0].Size(path)
	if err != nil {
		return TransferStats{}, err
	}
	start := time.Now()
	var mu sync.Mutex
	var agg TransferStats
	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for i, r := range (Range{0, size}).split(len(clients)) {
		wg.Add(1)
		go func(cl *Client, r Range) {
			defer wg.Done()
			st, err := cl.GetRange(path, r, dst)
			mu.Lock()
			agg.merge(st)
			mu.Unlock()
			if err != nil {
				errs <- err
			}
		}(clients[i], r)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return agg, err
	}
	agg.Elapsed = time.Since(start)
	agg.Attempts = 1
	return agg, nil
}

// --- third-party transfer ----------------------------------------------------

// ThirdParty moves a file directly between two servers: the client owns both
// control channels but the data flows server-to-server, the paper's
// "third-party control of data transfer". Both clients must share the same
// parallelism setting.
func ThirdParty(src, dst *Client, srcPath, dstPath string) (TransferStats, error) {
	if src.parallelism != dst.parallelism {
		return TransferStats{}, fmt.Errorf("gridftp: parallelism mismatch %d vs %d", src.parallelism, dst.parallelism)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()

	return src.recorded("3rd-party", func() (TransferStats, error) {
		return thirdPartyLocked(src, dst, srcPath, dstPath)
	})
}

func thirdPartyLocked(src, dst *Client, srcPath, dstPath string) (TransferStats, error) {
	start := time.Now()
	size, err := src.sizeLocked(srcPath)
	if err != nil {
		return TransferStats{}, err
	}
	// Source listens; destination will dial it.
	pi, err := src.enterPassive()
	if err != nil {
		return TransferStats{}, err
	}
	if err := dst.simpleCmd(codeOK, "PORT %s %s", pi.token, pi.addr); err != nil {
		return TransferStats{}, err
	}
	// Start the retrieve: the source now waits for data connections.
	code, text, err := src.roundTrip("RETR %s", srcPath)
	if err != nil {
		return TransferStats{}, err
	}
	if code != codeOpening {
		return TransferStats{}, fmt.Errorf("%w: RETR: %d %s", ErrTransferFailed, code, text)
	}
	// Kick off the store: the destination dials the source and receives.
	code, text, err = dst.roundTrip("STOR %d %s", size, dstPath)
	if err != nil {
		return TransferStats{}, err
	}
	if code != codeOpening {
		return TransferStats{}, fmt.Errorf("%w: STOR: %d %s", ErrTransferFailed, code, text)
	}

	stats := TransferStats{Attempts: 1}
	srcCode, srcText, err := src.drainTransferReplies(&stats)
	if err != nil {
		return stats, err
	}
	dstCode, dstText, err := dst.drainTransferReplies(&stats)
	if err != nil {
		return stats, err
	}
	stats.Elapsed = time.Since(start)
	stats.Bytes = size
	stats.Streams = src.parallelism
	if srcCode != codeComplete {
		return stats, fmt.Errorf("%w: source: %d %s", ErrTransferFailed, srcCode, srcText)
	}
	if dstCode != codeComplete {
		return stats, fmt.Errorf("%w: destination: %d %s", ErrTransferFailed, dstCode, dstText)
	}
	// End-to-end integrity: both sides must agree on the CRC.
	srcCRC, err := src.checksumCmd(wholeCKSM, srcPath)
	if err != nil {
		return stats, err
	}
	dstCRC, err := dst.checksumCmd(wholeCKSM, dstPath)
	if err != nil {
		return stats, err
	}
	if srcCRC != dstCRC {
		src.rec.CRCFailure()
		return stats, fmt.Errorf("%w: source %08x, destination %08x", ErrChecksum, srcCRC, dstCRC)
	}
	return stats, nil
}
