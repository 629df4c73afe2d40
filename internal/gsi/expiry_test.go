package gsi

import (
	"testing"
	"time"
)

// TestHandshakeRejectsExpiredCredential: a credential that was valid when
// issued but has expired by handshake time is refused at runtime.
func TestHandshakeRejectsExpiredCredential(t *testing.T) {
	ca := testCA(t)
	roots := []*Certificate{ca.Certificate()}
	shortLived, err := ca.Issue("ephemeral", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	server := issue(t, "expiry-server")
	time.Sleep(120 * time.Millisecond) // let it expire

	c, s := tcpPair(t)
	done := make(chan error, 1)
	go func() {
		_, err := Handshake(s, server, roots, false)
		done <- err
		s.Close()
	}()
	_, cerr := Handshake(c, shortLived, roots, true)
	c.Close()
	serr := <-done
	if serr == nil {
		t.Fatal("server accepted an expired client credential")
	}
	_ = cerr // client may fail with a hangup; the server check is the point
}

// TestHandshakeRejectsExpiredProxy: the proxy expires even though the
// underlying identity is still valid.
func TestHandshakeRejectsExpiredProxy(t *testing.T) {
	ca := testCA(t)
	roots := []*Certificate{ca.Certificate()}
	user := issue(t, "proxy-expiry-user")
	proxy, err := user.Delegate(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	server := issue(t, "proxy-expiry-server")
	time.Sleep(120 * time.Millisecond)

	c, s := tcpPair(t)
	done := make(chan error, 1)
	go func() {
		_, err := Handshake(s, server, roots, false)
		done <- err
		s.Close()
	}()
	_, _ = Handshake(c, proxy, roots, true)
	c.Close()
	if serr := <-done; serr == nil {
		t.Fatal("server accepted an expired proxy")
	}
	// The long-lived identity itself still works.
	c2, s2 := tcpPair(t)
	done2 := make(chan error, 1)
	go func() {
		_, err := Handshake(s2, server, roots, false)
		done2 <- err
		s2.Close()
	}()
	if _, err := Handshake(c2, user, roots, true); err != nil {
		t.Fatalf("base identity rejected: %v", err)
	}
	c2.Close()
	if err := <-done2; err != nil {
		t.Fatalf("server rejected base identity: %v", err)
	}
}
