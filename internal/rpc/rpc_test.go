package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/obs"
)

// --- codec ---------------------------------------------------------------

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.Uint8(7)
	e.Bool(true)
	e.Bool(false)
	e.Uint32(0xDEADBEEF)
	e.Uint64(1 << 60)
	e.Int64(-42)
	e.String("logical/file/name")
	e.Bytes32([]byte{1, 2, 3})
	e.StringList([]string{"a", "", "ccc"})

	d := NewDecoder(e.Bytes())
	if got := d.Uint8(); got != 7 {
		t.Errorf("Uint8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Errorf("Bool round trip failed")
	}
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %x", got)
	}
	if got := d.Uint64(); got != 1<<60 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.String(); got != "logical/file/name" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := d.StringList(); len(got) != 3 || got[0] != "a" || got[1] != "" || got[2] != "ccc" {
		t.Errorf("StringList = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, s string, bs []byte, list []string) bool {
		var e Encoder
		e.Uint64(a)
		e.Int64(b)
		e.String(s)
		e.Bytes32(bs)
		e.StringList(list)
		d := NewDecoder(e.Bytes())
		if d.Uint64() != a || d.Int64() != b || d.String() != s {
			return false
		}
		got := d.Bytes32()
		if !bytes.Equal(got, bs) && !(len(got) == 0 && len(bs) == 0) {
			return false
		}
		gl := d.StringList()
		if len(gl) != len(list) {
			return false
		}
		for i := range gl {
			if gl[i] != list[i] {
				return false
			}
		}
		return d.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderTruncation(t *testing.T) {
	var e Encoder
	e.String("hello")
	e.Uint64(12345)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_ = d.String()
		_ = d.Uint64()
		if d.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	var e Encoder
	e.Uint32(1)
	d := NewDecoder(append(e.Bytes(), 0x00))
	d.Uint32()
	if err := d.Finish(); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

func TestDecoderHugeLengthRejected(t *testing.T) {
	var e Encoder
	e.Uint32(0xFFFFFFFF) // claimed string length far beyond the buffer
	d := NewDecoder(e.Bytes())
	got := d.String()
	if got != "" || d.Err() == nil {
		t.Fatal("absurd length accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	// Sizes on both sides of ReadFrame's first 64 KiB read and its growth.
	for _, n := range []int{0, 11, 64 << 10, 200<<10 + 3} {
		var buf bytes.Buffer
		payload := bytes.Repeat([]byte("the payload "), n/12+1)[:n]
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%d bytes: frame round trip differs", n)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xFF
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// A header claiming the largest legal frame, followed by 10 bytes and EOF,
// must fail without reserving the claimed 128 MiB.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameLen)
	in := append(hdr[:], make([]byte, 10)...)
	var err error
	if got := allocated(func() { _, err = ReadFrame(bytes.NewReader(in)) }); got >= 1<<20 {
		t.Fatalf("short frame allocated %d bytes", got)
	}
	if err == nil {
		t.Fatal("short frame accepted")
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// --- client/server -------------------------------------------------------

var (
	rpcCAOnce sync.Once
	rpcCA     *gsi.CA
)

func ca(t *testing.T) *gsi.CA {
	t.Helper()
	rpcCAOnce.Do(func() {
		c, err := gsi.NewCA("DataGrid", time.Hour)
		if err != nil {
			panic(err)
		}
		rpcCA = c
	})
	return rpcCA
}

// startServer brings up a server on a loopback listener and returns its
// address plus a cleanup-registered shutdown.
func startServer(t *testing.T, acl *gsi.ACL, reg *obs.Registry, register func(*Server)) string {
	t.Helper()
	serverCred, err := ca(t).Issue("gdmp/test-server", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(serverCred, []*gsi.Certificate{ca(t).Certificate()}, acl, reg)
	register(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func dialAs(t *testing.T, addr, user string) *Client {
	t.Helper()
	cred, err := ca(t).Issue(user, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(context.Background(), addr, cred, []*gsi.Certificate{ca(t).Certificate()}, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestCallRoundTrip(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("echo")
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("echo", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			msg := args.String()
			if err := args.Finish(); err != nil {
				return err
			}
			resp.String(msg + "/" + peer.Base.CommonName)
			return nil
		})
	})
	cl := dialAs(t, addr, "alice")
	var args Encoder
	args.String("hello")
	d, err := cl.CallContext(context.Background(), "echo", &args)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := d.String(); got != "hello/alice" {
		t.Fatalf("echo = %q", got)
	}
	if cl.ServerIdentity().CommonName != "gdmp/test-server" {
		t.Fatalf("server identity = %v", cl.ServerIdentity())
	}
}

func TestMultipleSequentialCalls(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("inc")
	var mu sync.Mutex
	count := 0
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("inc", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			mu.Lock()
			count++
			resp.Uint32(uint32(count))
			mu.Unlock()
			return nil
		})
	})
	cl := dialAs(t, addr, "bob")
	for i := 1; i <= 10; i++ {
		d, err := cl.CallContext(context.Background(), "inc", nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := d.Uint32(); got != uint32(i) {
			t.Fatalf("call %d returned %d", i, got)
		}
	}
}

func TestConcurrentCallsSerialized(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("work")
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("work", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			resp.Uint64(args.Uint64() * 2)
			return nil
		})
	})
	cl := dialAs(t, addr, "carol")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			var args Encoder
			args.Uint64(i)
			d, err := cl.CallContext(context.Background(), "work", &args)
			if err != nil {
				errs <- err
				return
			}
			if got := d.Uint64(); got != i*2 {
				errs <- fmt.Errorf("work(%d) = %d", i, got)
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("fail")
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("fail", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			return errors.New("stage request refused: tape library offline")
		})
	})
	cl := dialAs(t, addr, "dave")
	_, err := cl.CallContext(context.Background(), "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("expected RemoteError, got %v", err)
	}
	if !strings.Contains(re.Msg, "tape library offline") {
		t.Fatalf("error message lost: %q", re.Msg)
	}
	// The connection survives a handler error.
	if _, err := cl.CallContext(context.Background(), "fail", nil); err == nil {
		t.Fatal("second call should also fail remotely")
	}
}

func TestUnknownMethod(t *testing.T) {
	addr := startServer(t, nil, nil, func(s *Server) {})
	cl := dialAs(t, addr, "erin")
	_, err := cl.CallContext(context.Background(), "no-such-method", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown method") {
		t.Fatalf("expected unknown-method error, got %v", err)
	}
}

func TestUnauthorizedCallRejected(t *testing.T) {
	acl := gsi.NewACL()
	acl.Allow(gsi.Identity{Organization: "DataGrid", CommonName: "admin"}, "secret")
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("secret", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			resp.String("classified")
			return nil
		})
	})
	cl := dialAs(t, addr, "intruder")
	_, err := cl.CallContext(context.Background(), "secret", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "unauthorized") {
		t.Fatalf("expected authorization failure, got %v", err)
	}
	// An authorized caller succeeds on the same server.
	admin := dialAs(t, addr, "admin")
	d, err := admin.CallContext(context.Background(), "secret", nil)
	if err != nil {
		t.Fatalf("admin call: %v", err)
	}
	if d.String() != "classified" {
		t.Fatal("admin did not get payload")
	}
}

func TestProxyCredentialAuthorizedAsBase(t *testing.T) {
	acl := gsi.NewACL()
	acl.Allow(gsi.Identity{Organization: "DataGrid", CommonName: "frank"}, "op")
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("op", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			resp.String(peer.Identity.CommonName)
			return nil
		})
	})
	userCred, err := ca(t).Issue("frank", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := userCred.Delegate(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(context.Background(), addr, proxy, []*gsi.Certificate{ca(t).Certificate()}, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("Dial with proxy: %v", err)
	}
	defer cl.Close()
	d, err := cl.CallContext(context.Background(), "op", nil)
	if err != nil {
		t.Fatalf("proxy call: %v", err)
	}
	if got := d.String(); got != "frank/proxy" {
		t.Fatalf("server saw identity %q", got)
	}
}

func TestDialRejectsWrongTrust(t *testing.T) {
	addr := startServer(t, nil, nil, func(s *Server) {})
	evil, err := gsi.NewCA("EvilGrid", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := evil.Issue("mallory", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Client trusts only EvilGrid; the server's chain will not verify.
	_, err = DialContext(context.Background(), addr, cred, []*gsi.Certificate{evil.Certificate()}, WithTimeout(2*time.Second))
	if err == nil {
		t.Fatal("handshake with mismatched trust roots should fail")
	}
}

// TestRefusedClientLearnsAtFirstCall pins where a client the server
// refuses finds out: TLS 1.3 lets the client finish its handshake before
// the server has judged the client's chain, so Dial succeeds and the first
// call fails, and nothing is dispatched.
func TestRefusedClientLearnsAtFirstCall(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("echo")
	var dispatched atomic.Int32
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("echo", func(context.Context, *gsi.Peer, *Decoder, *Encoder) error {
			dispatched.Add(1)
			return nil
		})
	})
	evil, err := gsi.NewCA("EvilGrid", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := evil.Issue("mallory", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// The client trusts the server's CA; the server does not trust EvilGrid.
	cl, err := DialContext(context.Background(), addr, cred, []*gsi.Certificate{ca(t).Certificate()}, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("Dial: %v; want success, the refusal arriving at the first read", err)
	}
	defer cl.Close()
	_, err = cl.CallContext(context.Background(), "echo", nil)
	var re *RemoteError
	if err == nil || errors.As(err, &re) {
		t.Fatalf("first call of a refused client: %v; want a transport error", err)
	}
	if n := dispatched.Load(); n != 0 {
		t.Fatalf("a refused client's call was dispatched %d times", n)
	}
}

func TestClientClosedCalls(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("echo")
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("echo", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error { return nil })
	})
	cl := dialAs(t, addr, "grace")
	cl.Close()
	if _, err := cl.CallContext(context.Background(), "echo", nil); err == nil {
		t.Fatal("call on closed client should fail")
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	serverCred, err := ca(t).Issue("gdmp/closing", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(serverCred, []*gsi.Certificate{ca(t).Certificate()}, nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// --- context ------------------------------------------------------------

func TestCallContextCancellationUnblocksCall(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("slow")
	release := make(chan struct{})
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("slow", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			<-release
			return nil
		})
	})
	defer close(release)
	cl := dialAs(t, addr, "dave")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := cl.CallContext(ctx, "slow", nil)
	if err == nil {
		t.Fatal("CallContext should fail when ctx is canceled mid-call")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestCanceledCallSparesItsNeighbour: a call canceled by its own context
// closes only its own session. The call queued behind it on the same
// client, and any call after it, dial a fresh session and succeed.
func TestCanceledCallSparesItsNeighbour(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("slow", "echo")
	entered := make(chan struct{})
	release := make(chan struct{})
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("slow", func(context.Context, *gsi.Peer, *Decoder, *Encoder) error {
			close(entered)
			<-release
			return nil
		})
		s.Handle("echo", func(context.Context, *gsi.Peer, *Decoder, *Encoder) error { return nil })
	})
	defer close(release)
	cl := dialAs(t, addr, "heidi")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aDone := make(chan error, 1)
	go func() {
		_, err := cl.CallContext(ctx, "slow", nil)
		aDone <- err
	}()
	<-entered
	bDone := make(chan error, 1)
	go func() {
		_, err := cl.CallContext(context.Background(), "echo", nil)
		bDone <- err
	}()
	// Let B queue behind A on the client's session. B must succeed
	// whether or not it is queued yet when A is canceled.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call: %v, want context.Canceled", err)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("neighbour of a canceled call: %v", err)
	}
	if _, err := cl.CallContext(context.Background(), "echo", nil); err != nil {
		t.Fatalf("call after the cancellation: %v", err)
	}
}

func TestCallContextDeadlineExceeded(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("slow")
	release := make(chan struct{})
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("slow", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			<-release
			return nil
		})
	})
	defer close(release)
	cl := dialAs(t, addr, "erin")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := cl.CallContext(ctx, "slow", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestDialContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cred, err := ca(t).Issue("frank", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialContext(ctx, "127.0.0.1:1", cred, []*gsi.Certificate{ca(t).Certificate()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DialContext on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestHandlerContextCanceledOnServerClose(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("watch")
	sawCancel := make(chan struct{})
	var srv *Server
	addr := startServer(t, acl, nil, func(s *Server) {
		srv = s
		s.Handle("watch", func(ctx context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			<-ctx.Done()
			close(sawCancel)
			return ctx.Err()
		})
	})
	cl := dialAs(t, addr, "grace")
	done := make(chan struct{})
	go func() {
		cl.CallContext(context.Background(), "watch", nil) // fails once the server shuts down
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	go srv.Close()
	select {
	case <-sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("handler ctx not canceled on server Close")
	}
	<-done
}
