package replica

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/rpc"
)

// TestRelayCannotInjectCatalogCall: an on-path relay forwards a site's
// catalog session byte for byte, handshake and calls alike, then writes
// one request frame of its own toward the server: a delete, sent as the
// peer the handshake authenticated. The session is protected, so the
// server drops the connection on the injected bytes and the catalog still
// holds the file.
func TestRelayCannotInjectCatalogCall(t *testing.T) {
	ca := testCA(t)
	roots := []*gsi.Certificate{ca.Certificate()}
	serverCred, err := ca.Issue("replicad/relayed", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	acl := gsi.NewACL()
	AllowCatalogUseAll(acl)
	cat := New(Options{})
	srv := NewServer(cat, serverCred, roots, acl)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relayLn.Close()
	upstream := make(chan net.Conn, 1)
	hungUp := make(chan struct{})
	go func() {
		c, err := relayLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		s, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer s.Close()
		upstream <- s
		go io.Copy(s, c)
		io.Copy(c, s) // until the server hangs up
		close(hungUp)
	}()

	cl := dialTestClient(t, relayLn.Addr().String())
	ctx := context.Background()
	const lfn = "lfn://cern.ch/run42.db"
	if err := cl.Register(ctx, lfn, map[string]string{AttrSize: "4096"}); err != nil {
		t.Fatal(err)
	}

	// The client is idle between calls: inject a whole request frame.
	var args, frame rpc.Encoder
	args.String(lfn)
	frame.String(MethodDelete)
	frame.Bytes32(args.Bytes())
	frame.Uint64(0) // no deadline budget
	frame.Uint32(0) // first attempt
	if err := rpc.WriteFrame(<-upstream, frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Error("the server kept the session up after the injected frame")
	}
	if _, err := cat.Lookup(lfn); err != nil {
		t.Fatalf("the injected delete was applied: %v", err)
	}
	if _, err := cl.Lookup(ctx, lfn); err == nil {
		t.Fatal("the client's session survived the injection")
	}
}
