package gsi

import (
	"bytes"
	"crypto/x509/pkix"
	"errors"
	"math/big"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var (
	testCAOnce sync.Once
	testCAInst *CA
)

// testCA returns a shared CA so tests do not each pay for key generation.
func testCA(t *testing.T) *CA {
	t.Helper()
	testCAOnce.Do(func() {
		ca, err := NewCA("DataGrid", 24*time.Hour)
		if err != nil {
			panic(err)
		}
		testCAInst = ca
	})
	return testCAInst
}

func issue(t *testing.T, name string) *Credential {
	t.Helper()
	cred, err := testCA(t).Issue(name, time.Hour)
	if err != nil {
		t.Fatalf("Issue(%q): %v", name, err)
	}
	return cred
}

func TestIdentityString(t *testing.T) {
	id := Identity{Organization: "DataGrid", CommonName: "Heinz"}
	if got, want := id.String(), "/O=DataGrid/CN=Heinz"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestParseIdentity(t *testing.T) {
	cases := []struct {
		in   string
		want Identity
		ok   bool
	}{
		{"/O=DataGrid/CN=Heinz", Identity{"DataGrid", "Heinz"}, true},
		{"/O=DataGrid/CN=gdmp/cern.ch", Identity{"DataGrid", "gdmp/cern.ch"}, true},
		{"/O=DataGrid/CN=Heinz/proxy", Identity{"DataGrid", "Heinz/proxy"}, true},
		{"/CN=OnlyName", Identity{"", "OnlyName"}, true},
		{"no-leading-slash", Identity{}, false},
		{"/X=unknown", Identity{}, false},
		{"/O=NoCN", Identity{"NoCN", ""}, true},
		{"", Identity{}, false},
		{"/O=", Identity{}, false},
	}
	for _, tc := range cases {
		got, err := ParseIdentity(tc.in)
		if tc.ok && err != nil {
			t.Errorf("ParseIdentity(%q): unexpected error %v", tc.in, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("ParseIdentity(%q): expected error, got %+v", tc.in, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("ParseIdentity(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseIdentityRoundTripProperty(t *testing.T) {
	f := func(org, cn string) bool {
		// Restrict to DN-safe strings: no '=' and no "/X=" boundary fakes.
		clean := func(s string) string {
			s = strings.ReplaceAll(s, "=", "")
			s = strings.ReplaceAll(s, "/", "")
			if s == "" {
				s = "x"
			}
			return s
		}
		id := Identity{Organization: clean(org), CommonName: clean(cn)}
		parsed, err := ParseIdentity(id.String())
		return err == nil && parsed == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityBaseAndProxy(t *testing.T) {
	base := Identity{"DataGrid", "Heinz"}
	p1 := Identity{"DataGrid", "Heinz/proxy"}
	p2 := Identity{"DataGrid", "Heinz/proxy/proxy"}
	if p1.Base() != base || p2.Base() != base || base.Base() != base {
		t.Fatalf("Base() did not strip proxy suffixes")
	}
	if !p1.IsProxyFor(base) || !p2.IsProxyFor(base) || !p2.IsProxyFor(p1) {
		t.Fatalf("IsProxyFor should accept proxy chains")
	}
	if base.IsProxyFor(base) {
		t.Fatalf("an identity is not its own proxy")
	}
	other := Identity{"DataGrid", "Heinzel"}
	if other.IsProxyFor(base) {
		t.Fatalf("unrelated identity accepted as proxy")
	}
	foreign := Identity{"OtherOrg", "Heinz/proxy"}
	if foreign.IsProxyFor(base) {
		t.Fatalf("proxy from a different organization accepted")
	}
}

func TestIssueAndVerifyChain(t *testing.T) {
	ca := testCA(t)
	cred := issue(t, "alice")
	id, err := VerifyChain(cred.FullChain(), []*Certificate{ca.Certificate()}, time.Now())
	if err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
	if id.CommonName != "alice" || id.Organization != "DataGrid" {
		t.Fatalf("verified identity = %v", id)
	}
}

func TestVerifyChainRejectsExpired(t *testing.T) {
	ca := testCA(t)
	cred := issue(t, "expired-user")
	_, err := VerifyChain(cred.FullChain(), []*Certificate{ca.Certificate()}, time.Now().Add(48*time.Hour))
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("expected ErrExpired, got %v", err)
	}
}

func TestVerifyChainRejectsUntrustedRoot(t *testing.T) {
	otherCA, err := NewCA("EvilGrid", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := otherCA.Issue("mallory", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	_, err = VerifyChain(cred.FullChain(), []*Certificate{testCA(t).Certificate()}, time.Now())
	if !errors.Is(err, ErrUntrusted) {
		t.Fatalf("expected ErrUntrusted, got %v", err)
	}
}

func TestVerifyChainRejectsTamperedCert(t *testing.T) {
	ca := testCA(t)
	cred := issue(t, "bob")
	chain := cred.FullChain()
	// Privilege escalation attempt: the same certificate naming "adm".
	forged, err := parseCertificate(bytes.Replace(chain[0].Raw, []byte("bob"), []byte("adm"), 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = VerifyChain([]*Certificate{forged, chain[1]}, []*Certificate{ca.Certificate()}, time.Now())
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("expected ErrBadSignature, got %v", err)
	}
}

func TestVerifyChainRejectsEmptyAndLong(t *testing.T) {
	ca := testCA(t)
	if _, err := VerifyChain(nil, []*Certificate{ca.Certificate()}, time.Now()); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("expected ErrEmptyChain, got %v", err)
	}
	long := make([]*Certificate, maxChainLen+1)
	for i := range long {
		long[i] = ca.Certificate()
	}
	if _, err := VerifyChain(long, []*Certificate{ca.Certificate()}, time.Now()); !errors.Is(err, ErrChainTooLong) {
		t.Fatalf("expected ErrChainTooLong, got %v", err)
	}
}

func TestDelegateProxy(t *testing.T) {
	ca := testCA(t)
	user := issue(t, "carol")
	proxy, err := user.Delegate(10 * time.Minute)
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}
	if !proxy.Cert.IsProxy {
		t.Fatalf("proxy certificate not marked as proxy")
	}
	id, err := VerifyChain(proxy.FullChain(), []*Certificate{ca.Certificate()}, time.Now())
	if err != nil {
		t.Fatalf("VerifyChain(proxy): %v", err)
	}
	if id.Base().CommonName != "carol" {
		t.Fatalf("proxy base identity = %v", id.Base())
	}

	// Second-level delegation also verifies.
	proxy2, err := proxy.Delegate(5 * time.Minute)
	if err != nil {
		t.Fatalf("Delegate(level 2): %v", err)
	}
	if _, err := VerifyChain(proxy2.FullChain(), []*Certificate{ca.Certificate()}, time.Now()); err != nil {
		t.Fatalf("VerifyChain(proxy level 2): %v", err)
	}
}

func TestProxyCannotOutliveSigner(t *testing.T) {
	user := issue(t, "dave")
	proxy, err := user.Delegate(1000 * time.Hour) // longer than user cert
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Cert.NotAfter.After(user.Cert.NotAfter) {
		t.Fatalf("proxy NotAfter %v exceeds signer NotAfter %v", proxy.Cert.NotAfter, user.Cert.NotAfter)
	}
}

// mint issues a certificate for subject under signer's certificate and
// key, marked as a proxy or not: what a credential holder can forge.
func mint(t *testing.T, subject Identity, isProxy bool, signer *Credential) *Certificate {
	t.Helper()
	tmpl := template(big.NewInt(7), subject, signer.Cert.NotAfter)
	if isProxy {
		tmpl.ExtraExtensions = []pkix.Extension{{Id: oidProxyCertInfo, Critical: true, Value: proxyCertInfo}}
	}
	cert, _, err := create(tmpl, signer.Cert, signer.Key)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func TestProxyNamingRuleEnforced(t *testing.T) {
	ca := testCA(t)
	user := issue(t, "erin")
	// A proxy whose subject does not extend the issuer.
	forged := mint(t, Identity{Organization: "DataGrid", CommonName: "root/proxy"}, true, user)
	chain := append([]*Certificate{forged}, user.FullChain()...)
	if _, err := VerifyChain(chain, []*Certificate{ca.Certificate()}, time.Now()); !errors.Is(err, ErrBadProxyName) {
		t.Fatalf("expected ErrBadProxyName, got %v", err)
	}
}

func TestNonCALeafCannotIssue(t *testing.T) {
	ca := testCA(t)
	user := issue(t, "frank")
	// frank signs a *non-proxy* certificate for another name.
	forged := mint(t, Identity{Organization: "DataGrid", CommonName: "gdmp/fake-site"}, false, user)
	chain := append([]*Certificate{forged}, user.FullChain()...)
	if _, err := VerifyChain(chain, []*Certificate{ca.Certificate()}, time.Now()); !errors.Is(err, ErrNotCA) {
		t.Fatalf("expected ErrNotCA, got %v", err)
	}
}

// tcpPair returns the two ends of a loopback TCP connection, both closed
// at the end of the test and both bounded by a deadline. A TLS peer that
// refuses writes its alert while the other side may still be writing its
// flight; net.Pipe, which buffers nothing, would deadlock there.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	for _, c := range []net.Conn{client, server} {
		c.SetDeadline(time.Now().Add(10 * time.Second))
		t.Cleanup(func() { c.Close() })
	}
	return client, server
}

func runHandshake(t *testing.T, client, server *Credential, clientRoots, serverRoots []*Certificate) (cp, sp *Peer, cerr, serr error) {
	t.Helper()
	c, s := tcpPair(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sp, serr = Handshake(s, server, serverRoots, false)
		if serr != nil {
			// Hanging up unblocks a client that is still mid-protocol,
			// exactly as a dropped TCP connection would.
			s.Close()
		}
	}()
	cp, cerr = Handshake(c, client, clientRoots, true)
	c.Close()
	<-done
	s.Close()
	return
}

func TestHandshakeMutualAuth(t *testing.T) {
	ca := testCA(t)
	roots := []*Certificate{ca.Certificate()}
	client := issue(t, "site1-client")
	server := issue(t, "gdmp/site2")
	cp, sp, cerr, serr := runHandshake(t, client, server, roots, roots)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake failed: client=%v server=%v", cerr, serr)
	}
	if cp.Identity.CommonName != "gdmp/site2" {
		t.Fatalf("client saw server as %v", cp.Identity)
	}
	if sp.Identity.CommonName != "site1-client" {
		t.Fatalf("server saw client as %v", sp.Identity)
	}
}

func TestHandshakeWithProxyCredential(t *testing.T) {
	ca := testCA(t)
	roots := []*Certificate{ca.Certificate()}
	user := issue(t, "kate")
	proxy, err := user.Delegate(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	server := issue(t, "gdmp/site3")
	_, sp, cerr, serr := runHandshake(t, proxy, server, roots, roots)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake failed: client=%v server=%v", cerr, serr)
	}
	if sp.Base.CommonName != "kate" {
		t.Fatalf("server resolved proxy base to %v", sp.Base)
	}
	if sp.Identity.CommonName != "kate/proxy" {
		t.Fatalf("server saw proxy identity %v", sp.Identity)
	}
}

func TestHandshakeRejectsForeignCA(t *testing.T) {
	evil, err := NewCA("EvilGrid", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := evil.Issue("mallory", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ca := testCA(t)
	roots := []*Certificate{ca.Certificate()}
	server := issue(t, "gdmp/site4")
	_, _, cerr, serr := runHandshake(t, mallory, server, []*Certificate{evil.Certificate()}, roots)
	if serr == nil {
		t.Fatalf("server accepted a foreign-CA client")
	}
	// The client may or may not detect a failure depending on ordering;
	// the server error is the security property. cerr is allowed to be a
	// connection error since the server hangs up.
	_ = cerr
}

func TestACL(t *testing.T) {
	acl := NewACL()
	alice := Identity{"DataGrid", "alice"}
	bob := Identity{"DataGrid", "bob"}
	acl.Allow(alice, "publish", "subscribe")
	if !acl.Authorized(alice, "publish") || !acl.Authorized(alice, "subscribe") {
		t.Fatalf("alice should be authorized")
	}
	if acl.Authorized(alice, "delete") {
		t.Fatalf("alice should not be authorized for delete")
	}
	if acl.Authorized(bob, "publish") {
		t.Fatalf("bob should not be authorized")
	}
	// Proxy identities resolve to base.
	proxy := Identity{"DataGrid", "alice/proxy"}
	if !acl.Authorized(proxy, "publish") {
		t.Fatalf("alice's proxy should inherit authorization")
	}
	// Wildcard operation.
	acl.Allow(bob, AnyOperation)
	if !acl.Authorized(bob, "anything-at-all") {
		t.Fatalf("wildcard operation should authorize bob")
	}
	// AllowAll subject wildcard.
	acl2 := NewACL()
	acl2.AllowAll("get")
	if !acl2.Authorized(alice, "get") || acl2.Authorized(alice, "put") {
		t.Fatalf("AllowAll misbehaved")
	}
	// Revocation.
	acl.Revoke(alice, "publish")
	if acl.Authorized(alice, "publish") {
		t.Fatalf("revoked permission still active")
	}
	if err := acl.Check(alice, "publish"); err == nil {
		t.Fatalf("Check should return an error after revocation")
	}
	if err := acl.Check(alice, "subscribe"); err != nil {
		t.Fatalf("Check(subscribe): %v", err)
	}
}

func TestACLEntries(t *testing.T) {
	acl := NewACL()
	acl.Allow(Identity{"DataGrid", "zed"}, "get")
	acl.Allow(Identity{"DataGrid", "amy"}, "publish", "get")
	lines := acl.Entries()
	if len(lines) != 2 {
		t.Fatalf("Entries = %v", lines)
	}
	if !strings.Contains(lines[0], "amy") || !strings.Contains(lines[0], "get,publish") {
		t.Fatalf("Entries not sorted/formatted: %v", lines)
	}
}

func TestCARefusesEmptyNames(t *testing.T) {
	if _, err := NewCA("", time.Hour); err == nil {
		t.Error("NewCA accepted empty organization")
	}
	if _, err := testCA(t).Issue("", time.Hour); err == nil {
		t.Error("Issue accepted empty common name")
	}
}

func TestDelegateFromCARefused(t *testing.T) {
	ca := testCA(t)
	caCred := &Credential{Cert: ca.Certificate(), Key: ca.key}
	if _, err := caCred.Delegate(time.Minute); err == nil {
		t.Fatal("CA credential delegation should be refused")
	}
}
