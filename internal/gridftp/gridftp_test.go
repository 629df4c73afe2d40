package gridftp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/obs"
	"gdmp/internal/retry"
	"gdmp/internal/wan"
)

// fastPolicy bounds a reliable transfer at n attempts with millisecond
// backoff so failure tests stay quick.
func fastPolicy(n int) retry.Policy {
	return retry.Policy{Attempts: n, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
}

var (
	ftpCAOnce sync.Once
	ftpCA     *gsi.CA
	ftpCreds  sync.Map // name -> *gsi.Credential
)

func ca(t *testing.T) *gsi.CA {
	t.Helper()
	ftpCAOnce.Do(func() {
		c, err := gsi.NewCA("DataGrid", time.Hour)
		if err != nil {
			panic(err)
		}
		ftpCA = c
	})
	return ftpCA
}

func cred(t *testing.T, name string) *gsi.Credential {
	t.Helper()
	if c, ok := ftpCreds.Load(name); ok {
		return c.(*gsi.Credential)
	}
	c, err := ca(t).Issue(name, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ftpCreds.Store(name, c)
	return c
}

func roots(t *testing.T) []*gsi.Certificate {
	return []*gsi.Certificate{ca(t).Certificate()}
}

// startServer brings up a GridFTP server over a temp root and returns its
// address and root path.
func startServer(t *testing.T, mutate func(*ServerConfig)) (addr, root string) {
	t.Helper()
	root = t.TempDir()
	acl := gsi.NewACL()
	acl.AllowAll(OpRead, OpWrite)
	cfg := ServerConfig{
		Root:       root,
		Cred:       cred(t, "gridftpd/"+t.Name()),
		TrustRoots: roots(t),
		ACL:        acl,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), root
}

func dial(t *testing.T, addr string, opts ...ClientOption) *Client {
	t.Helper()
	cl, err := Dial(addr, cred(t, "user/"+t.Name()), roots(t), opts...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// makeFile writes deterministic pseudo-random content.
func makeFile(t *testing.T, dir, name string, size int64, seed int64) (string, []byte) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestGetFileSingleStream(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "events.db", 300_000, 1)
	cl := dial(t, addr)
	local := filepath.Join(t.TempDir(), "out.db")
	stats, err := cl.GetFile("events.db", local)
	if err != nil {
		t.Fatalf("GetFile: %v", err)
	}
	got, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after transfer")
	}
	if stats.Bytes != 300_000 || stats.Streams != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.RateMbps() <= 0 {
		t.Fatalf("rate = %v", stats.RateMbps())
	}
}

func TestGetFileParallelStreams(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "big.db", 1_200_000, 2)
	cl := dial(t, addr, WithParallelism(4), WithBlockSize(32*1024))
	local := filepath.Join(t.TempDir(), "out.db")
	stats, err := cl.GetFile("big.db", local)
	if err != nil {
		t.Fatalf("GetFile: %v", err)
	}
	got, _ := os.ReadFile(local)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch with 4 streams")
	}
	if stats.Streams != 4 || len(stats.PerStream) != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	var sum int64
	active := 0
	for _, b := range stats.PerStream {
		sum += b
		if b > 0 {
			active++
		}
	}
	if sum != 1_200_000 {
		t.Fatalf("per-stream sum %d != total", sum)
	}
	if active != 4 {
		t.Fatalf("only %d of 4 streams carried data", active)
	}
}

func TestPutFileRoundTrip(t *testing.T) {
	addr, root := startServer(t, nil)
	srcDir := t.TempDir()
	local, want := makeFile(t, srcDir, "upload.db", 700_000, 3)
	cl := dial(t, addr, WithParallelism(3))
	stats, err := cl.PutFile(local, "incoming/upload.db")
	if err != nil {
		t.Fatalf("PutFile: %v", err)
	}
	if stats.Bytes != 700_000 {
		t.Fatalf("stats = %+v", stats)
	}
	got, err := os.ReadFile(filepath.Join(root, "incoming", "upload.db"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("uploaded content mismatch")
	}
	// Server-side checksum agrees with local computation.
	sum, err := cl.Checksum("incoming/upload.db")
	if err != nil {
		t.Fatal(err)
	}
	if sum != crc32.ChecksumIEEE(want) {
		t.Fatalf("CKSM = %08x, want %08x", sum, crc32.ChecksumIEEE(want))
	}
}

func TestPartialTransfer(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "f.db", 100_000, 4)
	cl := dial(t, addr, WithParallelism(2))
	dst := newSparseBuffer(100_000)
	r := Range{Start: 30_000, End: 70_000}
	stats, err := cl.GetRange("f.db", r, dst)
	if err != nil {
		t.Fatalf("GetRange: %v", err)
	}
	if stats.Bytes != r.Len() {
		t.Fatalf("transferred %d, want %d", stats.Bytes, r.Len())
	}
	if !bytes.Equal(dst.data[30_000:70_000], want[30_000:70_000]) {
		t.Fatal("partial content mismatch")
	}
	// Range checksum agrees too.
	sum, err := cl.ChecksumRange("f.db", r.Start, r.Len())
	if err != nil {
		t.Fatal(err)
	}
	if sum != crc32.ChecksumIEEE(want[30_000:70_000]) {
		t.Fatal("range checksum mismatch")
	}
}

// TestPathsWithSpaces: every verb takes its path verbatim, spaces and all,
// including one whose first two words are numbers, which the whole-file
// CKSM must not read as "<off> <len> <path>".
func TestPathsWithSpaces(t *testing.T) {
	addr, root := startServer(t, nil)
	cl := dial(t, addr)
	for _, name := range []string{"run 1/f.db", "2001 7 run.db"} {
		data := []byte("payload of " + name)
		if _, err := cl.Put(name, bytes.NewReader(data), int64(len(data))); err != nil {
			t.Fatalf("Put(%q): %v", name, err)
		}
		if got, err := os.ReadFile(filepath.Join(root, name)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("stored %q: %q, %v", name, got, err)
		}
		if sum, err := cl.Checksum(name); err != nil || sum != crc32.ChecksumIEEE(data) {
			t.Fatalf("Checksum(%q) = %08x, %v", name, sum, err)
		}
		if sum, err := cl.ChecksumRange(name, 3, 4); err != nil || sum != crc32.ChecksumIEEE(data[3:7]) {
			t.Fatalf("ChecksumRange(%q) = %08x, %v", name, sum, err)
		}
		local := filepath.Join(t.TempDir(), "out.db")
		if _, err := cl.GetFile(name, local); err != nil {
			t.Fatalf("GetFile(%q): %v", name, err)
		}
	}
}

func TestRangeBeyondEOFRejected(t *testing.T) {
	addr, root := startServer(t, nil)
	makeFile(t, root, "f.db", 1000, 5)
	cl := dial(t, addr)
	dst := newSparseBuffer(5000)
	_, err := cl.GetRange("f.db", Range{0, 5000}, dst)
	if !errors.Is(err, ErrTransferFailed) {
		t.Fatalf("expected ErrTransferFailed, got %v", err)
	}
}

func TestZeroByteFile(t *testing.T) {
	addr, root := startServer(t, nil)
	makeFile(t, root, "empty", 0, 6)
	cl := dial(t, addr, WithParallelism(3))
	local := filepath.Join(t.TempDir(), "empty-out")
	stats, err := cl.GetFile("empty", local)
	if err != nil {
		t.Fatalf("GetFile(empty): %v", err)
	}
	if stats.Bytes != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	info, err := os.Stat(local)
	if err != nil || info.Size() != 0 {
		t.Fatalf("local empty file: %v %v", info, err)
	}
	// Upload a zero-byte file too.
	if _, err := cl.Put("empty-up", bytes.NewReader(nil), 0); err != nil {
		t.Fatalf("Put(empty): %v", err)
	}
	size, err := cl.Size("empty-up")
	if err != nil || size != 0 {
		t.Fatalf("Size(empty-up) = %d, %v", size, err)
	}
}

func TestPathTraversalRejected(t *testing.T) {
	addr, root := startServer(t, nil)
	// Plant a file *outside* the root.
	outside := filepath.Join(filepath.Dir(root), "secret.txt")
	if err := os.WriteFile(outside, []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)
	cl := dial(t, addr)
	for _, p := range []string{"../secret.txt", "a/../../secret.txt", "/../secret.txt"} {
		if _, err := cl.Size(p); err == nil {
			t.Errorf("path traversal %q allowed", p)
		}
	}
}

func TestUnauthorizedOperations(t *testing.T) {
	readOnly := gsi.NewACL()
	readOnly.AllowAll(OpRead)
	addr, root := startServer(t, func(cfg *ServerConfig) { cfg.ACL = readOnly })
	makeFile(t, root, "f.db", 1000, 10)
	cl := dial(t, addr)
	// Read works.
	if _, err := cl.Size("f.db"); err != nil {
		t.Fatalf("read should be allowed: %v", err)
	}
	// Writes are denied.
	if _, err := cl.Put("up.db", bytes.NewReader([]byte("hi")), 2); err == nil {
		t.Fatal("put should be denied")
	}
	// A server with an empty ACL denies reads too.
	addr2, root2 := startServer(t, func(cfg *ServerConfig) { cfg.ACL = gsi.NewACL() })
	makeFile(t, root2, "f.db", 10, 11)
	cl2 := dial(t, addr2)
	if _, err := cl2.Size("f.db"); err == nil {
		t.Fatal("read should be denied with empty ACL")
	}
}

func TestPerformanceMarkers(t *testing.T) {
	addr, root := startServer(t, func(cfg *ServerConfig) { cfg.MarkerBytes = 100_000 })
	makeFile(t, root, "big.db", 1_000_000, 12)
	cl := dial(t, addr, WithParallelism(2))
	local := filepath.Join(t.TempDir(), "out")
	stats, err := cl.GetFile("big.db", local)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Markers) == 0 {
		t.Fatal("no performance markers received")
	}
	for _, m := range stats.Markers {
		if m.Total != 1_000_000 || m.Bytes <= 0 || m.Bytes > m.Total {
			t.Fatalf("implausible marker %+v", m)
		}
	}
}

func TestPutRegion(t *testing.T) {
	addr, root := startServer(t, nil)
	// Seed the remote file, then overwrite two regions via ESTO.
	_, orig := makeFile(t, root, "f.db", 10_000, 13)
	patch := make([]byte, 10_000)
	rand.New(rand.NewSource(99)).Read(patch)
	cl := dial(t, addr)
	ranges := []Range{{1000, 2000}, {5000, 7500}}
	if _, err := cl.PutRegion("f.db", bytes.NewReader(patch), ranges); err != nil {
		t.Fatalf("PutRegion: %v", err)
	}
	got, _ := os.ReadFile(filepath.Join(root, "f.db"))
	want := append([]byte(nil), orig...)
	copy(want[1000:2000], patch[1000:2000])
	copy(want[5000:7500], patch[5000:7500])
	if !bytes.Equal(got, want) {
		t.Fatal("PutRegion result mismatch")
	}
}

func TestSBUFAndOPTSValidation(t *testing.T) {
	addr, root := startServer(t, nil)
	makeFile(t, root, "f", 10, 14)
	cl := dial(t, addr)
	if err := cl.SetBufferSize(256 * 1024); err != nil {
		t.Fatalf("SetBufferSize: %v", err)
	}
	if err := cl.SetBufferSize(10); err == nil {
		t.Fatal("absurd SBUF accepted")
	}
	// The stream count is set at dial (WithParallelism); the server's own
	// range check is what a raw OPTS PARALLEL meets.
	for _, tc := range []struct {
		arg  string
		code int
	}{{"8", codeOK}, {"0", codeBadArgs}, {fmt.Sprint(MaxParallelism + 1), codeBadArgs}, {"x", codeBadArgs}} {
		if code, text, err := cl.roundTrip("OPTS PARALLEL %s", tc.arg); err != nil || code != tc.code {
			t.Errorf("OPTS PARALLEL %s = %d %q, %v; want %d", tc.arg, code, text, err, tc.code)
		}
	}
}

// flakyDialer fails data transfers by cutting connections after a byte
// budget, but only for the first k attempts.
type flakyDialer struct {
	mu       sync.Mutex
	attempts int
	failures int
	budget   int64
}

func (f *flakyDialer) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.attempts <= f.failures {
		return &limitedConn{Conn: c, budget: f.budget}, nil
	}
	return c, nil
}

// limitedConn closes itself after reading budget bytes.
type limitedConn struct {
	net.Conn
	mu     sync.Mutex
	budget int64
}

func (l *limitedConn) Read(p []byte) (int, error) {
	l.mu.Lock()
	if l.budget <= 0 {
		l.mu.Unlock()
		l.Conn.Close()
		return 0, errors.New("connection torn down (injected fault)")
	}
	if int64(len(p)) > l.budget {
		p = p[:l.budget]
	}
	l.mu.Unlock()
	n, err := l.Conn.Read(p)
	l.mu.Lock()
	l.budget -= int64(n)
	l.mu.Unlock()
	return n, err
}

func TestReliableGetRestartsAfterFailure(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "big.db", 2_000_000, 15)
	fd := &flakyDialer{failures: 1, budget: 500_000}

	connect := func(ctx context.Context) (*Client, error) {
		fd.mu.Lock()
		fd.attempts++
		fd.mu.Unlock()
		return Dial(addr, cred(t, "user/"+t.Name()), roots(t),
			WithDialFunc(fd.dial), WithParallelism(2))
	}
	local := filepath.Join(t.TempDir(), "out.db")
	stats, err := ReliableGetFile(context.Background(), connect, "big.db", local, fastPolicy(5))
	if err != nil {
		t.Fatalf("ReliableGetFile: %v", err)
	}
	if stats.Attempts < 2 {
		t.Fatalf("expected a restart, attempts = %d", stats.Attempts)
	}
	got, _ := os.ReadFile(local)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after restart")
	}
	// The restart moved less data than two full transfers would have.
	if stats.Bytes >= 2*2_000_000 {
		t.Fatalf("restart re-fetched everything: moved %d bytes", stats.Bytes)
	}
}

func TestReliableGetExhaustsAttempts(t *testing.T) {
	addr, root := startServer(t, nil)
	makeFile(t, root, "big.db", 2_000_000, 16)
	fd := &flakyDialer{failures: 1 << 30, budget: 100_000} // always fails
	connect := func(ctx context.Context) (*Client, error) {
		return Dial(addr, cred(t, "user/"+t.Name()), roots(t),
			WithDialFunc(fd.dial), WithParallelism(1))
	}
	local := filepath.Join(t.TempDir(), "out.db")
	_, err := ReliableGetFile(context.Background(), connect, "big.db", local, fastPolicy(2))
	if err == nil {
		t.Fatal("expected failure after exhausting attempts")
	}
}

// TestControlDeadlineOnHungServer pins the regression where the control
// deadline was cleared after the handshake: a server that authenticates,
// banners, and then goes silent must not wedge subsequent control
// operations forever — each exchange is bounded by the client timeout.
func TestControlDeadlineOnHungServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvCred := cred(t, "gridftpd/"+t.Name())
	rts := roots(t)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		peer, err := gsi.Handshake(c, srvCred, rts, false)
		if err != nil {
			return
		}
		io.WriteString(peer.Conn, "220 ready\r\n")
		br := bufio.NewReader(peer.Conn)
		// Answer the OPTS PARALLEL session setup, then go silent: keep
		// reading so the TCP window stays open but never reply again.
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		io.WriteString(peer.Conn, "200 ok\r\n")
		io.Copy(io.Discard, br)
	}()

	cl, err := Dial(ln.Addr().String(), cred(t, "user/"+t.Name()), rts,
		WithTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.Size("anything.db")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("SIZE against a hung server succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("control operation hung for %v despite the timeout", elapsed)
	}
}

func TestStripedGet(t *testing.T) {
	// Two servers each hold a replica of the same file.
	addr1, root1 := startServer(t, nil)
	addr2, root2 := startServer(t, nil)
	_, want := makeFile(t, root1, "f.db", 900_000, 17)
	if err := os.WriteFile(filepath.Join(root2, "f.db"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	cl1 := dial(t, addr1, WithParallelism(2))
	cl2 := dial(t, addr2, WithParallelism(2))
	dst := newSparseBuffer(900_000)
	stats, err := StripedGet([]*Client{cl1, cl2}, "f.db", dst)
	if err != nil {
		t.Fatalf("StripedGet: %v", err)
	}
	if !bytes.Equal(dst.data, want) {
		t.Fatal("striped content mismatch")
	}
	if stats.Bytes != 900_000 || stats.Streams != 4 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	addrSrc, rootSrc := startServer(t, nil)
	addrDst, rootDst := startServer(t, nil)
	_, want := makeFile(t, rootSrc, "src.db", 600_000, 18)

	src := dial(t, addrSrc, WithParallelism(3))
	dst := dial(t, addrDst, WithParallelism(3))
	stats, err := ThirdParty(src, dst, "src.db", "moved/dst.db")
	if err != nil {
		t.Fatalf("ThirdParty: %v", err)
	}
	if stats.Bytes != 600_000 {
		t.Fatalf("stats = %+v", stats)
	}
	got, err := os.ReadFile(filepath.Join(rootDst, "moved", "dst.db"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("third-party content mismatch")
	}
}

func TestThirdPartyParallelismMismatch(t *testing.T) {
	addr1, _ := startServer(t, nil)
	addr2, _ := startServer(t, nil)
	a := dial(t, addr1, WithParallelism(2))
	b := dial(t, addr2, WithParallelism(3))
	if _, err := ThirdParty(a, b, "x", "y"); err == nil {
		t.Fatal("mismatched parallelism accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "f.db", 400_000, 19)
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(addr, cred(t, "user/"+t.Name()), roots(t), WithParallelism(2))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			dst := newSparseBuffer(400_000)
			if _, err := cl.Get("f.db", dst); err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			if !bytes.Equal(dst.data, want) {
				errs <- fmt.Errorf("client %d: content mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDialRejectsBadParallelism(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil, nil, WithParallelism(0)); err == nil {
		t.Fatal("parallelism 0 accepted at dial")
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewServer(ServerConfig{Root: "/definitely/not/here"}); err == nil {
		t.Error("missing root accepted")
	}
	file := filepath.Join(t.TempDir(), "plain")
	os.WriteFile(file, nil, 0o644)
	if _, err := NewServer(ServerConfig{Root: file}); err == nil {
		t.Error("non-directory root accepted")
	}
	if _, err := NewServer(ServerConfig{Root: t.TempDir()}); err == nil {
		t.Error("missing credential accepted")
	}
}

// sparseBuffer is an in-memory io.WriterAt for tests.
type sparseBuffer struct {
	mu   sync.Mutex
	data []byte
}

func newSparseBuffer(size int64) *sparseBuffer {
	return &sparseBuffer{data: make([]byte, size)}
}

func (b *sparseBuffer) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(b.data)) {
		return 0, fmt.Errorf("write [%d,%d) outside buffer of %d", off, off+int64(len(p)), len(b.data))
	}
	copy(b.data[off:], p)
	return len(p), nil
}

// TestReliableGetAbortsOnContextCancel proves the acceptance contract of
// the context threading: canceling the context mid-transfer severs the
// session's data connections, so ReliableGetFile returns within one retry
// interval instead of finishing the download or sleeping out the backoff
// schedule.
func TestReliableGetAbortsOnContextCancel(t *testing.T) {
	addr, root := startServer(t, nil)
	makeFile(t, root, "big.db", 4_000_000, 21)

	// Pace the link so the transfer takes several seconds untouched.
	link := wan.NewLink(4, 0) // 4 Mbps -> ~8 s for 4 MB
	ctx, cancel := context.WithCancel(context.Background())
	connect := func(ctx context.Context) (*Client, error) {
		return DialContext(ctx, addr, cred(t, "user/"+t.Name()), roots(t),
			WithDialFunc(link.Dialer(net.Dial)), WithParallelism(2))
	}
	pol := fastPolicy(5)
	pol.BaseDelay = 200 * time.Millisecond
	pol.MaxDelay = 200 * time.Millisecond

	done := make(chan error, 1)
	local := filepath.Join(t.TempDir(), "out.db")
	go func() {
		_, err := ReliableGetFile(ctx, connect, "big.db", local, pol)
		done <- err
	}()
	time.Sleep(300 * time.Millisecond) // well into the data transfer
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected error from canceled transfer")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// One retry interval (200 ms) plus scheduling slack.
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("abort took %v, want within one retry interval", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled transfer did not abort")
	}
}

// TestDialWithoutRegistryRecordsNothing: a client dialled with no registry
// builds no transfer recorder and no private registry for it, so its dial
// allocates well under one that records into a fresh registry (by about
// fifty allocations, of about a thousand the handshake costs both).
func TestDialWithoutRegistryRecordsNothing(t *testing.T) {
	addr, _ := startServer(t, nil)
	c, r := cred(t, "user/allocs"), roots(t)
	allocs := func(opts func() []ClientOption) float64 {
		return testing.AllocsPerRun(20, func() {
			cl, err := Dial(addr, c, r, opts()...)
			if err != nil {
				t.Fatal(err)
			}
			cl.Close()
		})
	}
	bare := allocs(func() []ClientOption { return nil })
	recorded := allocs(func() []ClientOption { return []ClientOption{WithMetrics(obs.NewRegistry())} })
	if bare+25 > recorded {
		t.Fatalf("a registry-less dial allocates %v times, one into a fresh registry %v; want at least 25 fewer", bare, recorded)
	}
}
