package rpc

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/gsi"
	"gdmp/internal/obs"
)

// --- call metadata --------------------------------------------------------

func TestWireMetadataReachesHandler(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("meta")
	gotDeadline := make(chan time.Duration, 1)
	addr := startServer(t, acl, nil, func(s *Server) {
		s.Handle("meta", func(ctx context.Context, _ *gsi.Peer, args *Decoder, resp *Encoder) error {
			if d, ok := ctx.Deadline(); ok {
				gotDeadline <- time.Until(d)
			} else {
				gotDeadline <- 0
			}
			return nil
		})
	})
	cl := dialAs(t, addr, "alice")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := cl.CallContext(ctx, "meta", nil); err != nil {
		t.Fatalf("call: %v", err)
	}
	budget := <-gotDeadline
	if budget <= 0 || budget > 3*time.Second {
		t.Fatalf("handler deadline budget = %v, want (0, 3s]", budget)
	}
}

// --- admission at dispatch -----------------------------------------------

func TestDispatchOverloadTypedError(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("slow")
	reg := obs.NewRegistry()
	ctrl := admission.New(admission.Config{
		ControlSlots: 1, ControlQueue: 1,
		RetryAfterMin: 25 * time.Millisecond,
		Registry:      reg,
	})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	addr := startServer(t, acl, reg, func(s *Server) {
		s.SetAdmission(ctrl, nil)
		s.Handle("slow", func(ctx context.Context, _ *gsi.Peer, args *Decoder, resp *Encoder) error {
			started <- struct{}{}
			<-release
			return nil
		})
	})
	defer close(release)

	// First call occupies the slot; a second queues; a third must be refused
	// with the typed overloaded status carrying a retry-after.
	go dialAs(t, addr, "a").CallContext(context.Background(), "slow", nil)
	<-started
	go dialAs(t, addr, "b").CallContext(context.Background(), "slow", nil)
	waitUntil(t, func() bool {
		return reg.GaugeVec("gdmp_admission_queue_depth", "", "class").WithLabelValues("control").Value() == 1
	})

	_, err := dialAs(t, addr, "c").CallContext(context.Background(), "slow", nil)
	if !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var ov *admission.Overloaded
	if !errors.As(err, &ov) {
		t.Fatalf("err = %#v, want *admission.Overloaded", err)
	}
	if ov.After < 25*time.Millisecond {
		t.Fatalf("retry-after = %v, want >= 25ms", ov.After)
	}
	if ov.Reason != "queue_full" {
		t.Fatalf("reason = %q, want queue_full", ov.Reason)
	}
}

// --- accept-loop robustness ----------------------------------------------

type tempNetErr struct{}

func (tempNetErr) Error() string   { return "accept: too many open files" }
func (tempNetErr) Timeout() bool   { return false }
func (tempNetErr) Temporary() bool { return true }

type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, tempNetErr{}
	}
	return l.Listener.Accept()
}

func TestAcceptBackoffOnTemporaryErrors(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("ping")
	serverCred, err := ca(t).Issue("gdmp/flaky-server", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := NewServer(serverCred, []*gsi.Certificate{ca(t).Certificate()}, acl, reg)
	srv.Handle("ping", func(context.Context, *gsi.Peer, *Decoder, *Encoder) error { return nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	fl.fails.Store(3)
	go srv.Serve(fl)
	t.Cleanup(func() { srv.Close() })

	// The loop must survive the transient failures and still serve.
	cl := dialAs(t, ln.Addr().String(), "alice")
	if _, err := cl.CallContext(context.Background(), "ping", nil); err != nil {
		t.Fatalf("call after accept errors: %v", err)
	}
	if got := reg.Counter("gdmp_rpc_accept_errors_total", "").Value(); got != 3 {
		t.Fatalf("accept errors counter = %d, want 3", got)
	}
}

func TestMaxConnsRefusesDialFlood(t *testing.T) {
	acl := gsi.NewACL()
	acl.AllowAll("ping")
	reg := obs.NewRegistry()
	var addr string
	addr = startServer(t, acl, reg, func(s *Server) {
		s.MaxConns = 1
		s.Handle("ping", func(context.Context, *gsi.Peer, *Decoder, *Encoder) error { return nil })
	})
	cl := dialAs(t, addr, "alice")
	if _, err := cl.CallContext(context.Background(), "ping", nil); err != nil {
		t.Fatalf("first conn: %v", err)
	}
	// The second connection is accepted and immediately closed before the
	// handshake, so the dial (which includes the handshake) fails.
	cred, err := ca(t).Issue("bob", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialContext(context.Background(), addr, cred, []*gsi.Certificate{ca(t).Certificate()}, WithTimeout(2*time.Second)); err == nil {
		t.Fatal("second dial succeeded past the connection cap")
	}
	if got := reg.Counter(ServerMetricsPrefix+"_conns_rejected_total", "").Value(); got < 1 {
		t.Fatalf("conns rejected counter = %d, want >= 1", got)
	}
	// Releasing the first connection frees the slot.
	cl.Close()
	waitUntil(t, func() bool {
		c, err := DialContext(context.Background(), addr, cred, []*gsi.Certificate{ca(t).Certificate()}, WithTimeout(2*time.Second))
		if err != nil {
			return false
		}
		defer c.Close()
		_, err = c.CallContext(context.Background(), "ping", nil)
		return err == nil
	})
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
