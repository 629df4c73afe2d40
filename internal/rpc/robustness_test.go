package rpc

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"gdmp/internal/gsi"
)

// TestCallTimeout: a handler that never returns must not hang the caller
// when a timeout is configured.
func TestCallTimeout(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("hang", "echo")
	block := make(chan struct{})
	defer close(block)
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("hang", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error {
			<-block
			return nil
		})
		s.Handle("echo", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error { return nil })
	})
	cred, err := ca(t).Issue("impatient", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(context.Background(), addr, cred, []*gsi.Certificate{ca(t).Certificate()},
		WithTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.CallContext(context.Background(), "hang", nil)
	if err == nil {
		t.Fatal("hung call returned successfully")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The timed-out call dropped the session: the next call on the same
	// client dials a fresh one.
	if _, err := cl.CallContext(context.Background(), "echo", nil); err != nil {
		t.Fatalf("second call after timeout: %v", err)
	}
}

// TestServerRequestTimeout: the server's per-request deadline disconnects
// idle clients instead of holding goroutines forever.
func TestServerRequestTimeout(t *testing.T) {
	serverCred, err := ca(t).Issue("gdmp/deadline", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	acl := gsi.NewACL()
	acl.AllowAll("echo")
	srv := NewServer(serverCred, []*gsi.Certificate{ca(t).Certificate()}, acl, nil)
	srv.TimeoutD = 150 * time.Millisecond
	srv.Handle("echo", func(_ context.Context, peer *gsi.Peer, args *Decoder, resp *Encoder) error { return nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cred, err := ca(t).Issue("idler", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(context.Background(), ln.Addr().String(), cred, []*gsi.Certificate{ca(t).Certificate()},
		WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// First call succeeds, then the client idles past the deadline; the
	// server hangs up and the next call fails.
	if _, err := cl.CallContext(context.Background(), "echo", nil); err != nil {
		t.Fatalf("first call: %v", err)
	}
	time.Sleep(400 * time.Millisecond)
	if _, err := cl.CallContext(context.Background(), "echo", nil); err == nil {
		t.Fatal("call after server-side idle timeout succeeded")
	}
}

// TestCorruptFrameDisconnects: a malformed request frame terminates the
// connection rather than crashing or wedging the server.
func TestCorruptFrameDisconnects(t *testing.T) {
	serverCred, err := ca(t).Issue("gdmp/corrupt", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(serverCred, []*gsi.Certificate{ca(t).Certificate()}, nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cred, err := ca(t).Issue("vandal", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := gsi.Handshake(conn, cred, []*gsi.Certificate{ca(t).Certificate()}, true)
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose inner structure is garbage.
	if err := WriteFrame(peer.Conn, []byte{0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadFrame(peer.Conn); err == nil {
		t.Fatal("server answered a corrupt frame instead of hanging up")
	}
	// The server still serves new connections.
	cl, err := DialContext(context.Background(), ln.Addr().String(), cred, []*gsi.Certificate{ca(t).Certificate()},
		WithTimeout(2*time.Second))
	if err != nil {
		t.Fatalf("server wedged after corrupt frame: %v", err)
	}
	cl.Close()
}

// TestTruncatedErrorReplyRefused: an error reply cut anywhere after its
// status byte, inside the 4-byte code or the message, is a corrupt reply
// to the caller, not a panic and not a RemoteError; the whole reply is a
// RemoteError carrying the code.
func TestTruncatedErrorReplyRefused(t *testing.T) {
	var whole Encoder
	whole.Uint8(statusError)
	whole.Uint32(2)
	whole.String("replica: entry not found")
	reply := whole.Bytes()

	srvCred, err := ca(t).Issue("gdmp/truncating", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	roots := []*gsi.Certificate{ca(t).Certificate()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	replies := make(chan []byte)
	go func() {
		for frame := range replies {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if peer, err := gsi.Handshake(conn, srvCred, roots, false); err == nil {
				if _, err := ReadFrame(peer.Conn); err == nil {
					WriteFrame(peer.Conn, frame)
				}
			}
			conn.Close()
		}
	}()
	defer close(replies)
	cred, err := ca(t).Issue("reader", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= len(reply); cut++ {
		replies <- reply[:cut]
		cl, err := DialContext(context.Background(), ln.Addr().String(), cred, roots, WithTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.CallContext(context.Background(), "rc.lookup", nil)
		cl.Close()
		var re *RemoteError
		if cut < len(reply) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("error reply cut to %d of %d bytes: %v; want ErrCorrupt", cut, len(reply), err)
		}
		if cut == len(reply) && (!errors.As(err, &re) || re.Code != 2) {
			t.Errorf("whole error reply: %v; want a RemoteError with code 2", err)
		}
	}
}
