package gsi

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSaveLoadCertificate(t *testing.T) {
	ca := testCA(t)
	path := filepath.Join(t.TempDir(), "ca.pem")
	if err := SaveCertificate(ca.Certificate(), path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCertificate(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Subject != ca.Certificate().Subject || !loaded.IsCA {
		t.Fatalf("loaded cert = %+v", loaded)
	}
	// Loaded root still anchors verification.
	cred := issue(t, "store-user")
	if _, err := VerifyChain(cred.FullChain(), []*Certificate{loaded}, time.Now()); err != nil {
		t.Fatalf("VerifyChain with loaded root: %v", err)
	}
}

func TestSaveLoadCredential(t *testing.T) {
	cred := issue(t, "store-carol")
	proxy, err := cred.Delegate(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "proxy.pem")
	if err := SaveCredential(proxy, path); err != nil {
		t.Fatal(err)
	}
	// Key files must be private.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("credential file mode = %v", info.Mode().Perm())
	}
	loaded, err := LoadCredential(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Identity() != proxy.Identity() {
		t.Fatalf("identity = %v", loaded.Identity())
	}
	if len(loaded.Chain) != 2 {
		t.Fatalf("chain length = %d", len(loaded.Chain))
	}
	// The loaded credential can actually authenticate.
	server := issue(t, "store-server")
	c, s := tcpPair(t)
	done := make(chan error, 1)
	go func() {
		_, err := Handshake(s, server, []*Certificate{testCA(t).Certificate()}, false)
		done <- err
		s.Close()
	}()
	if _, err := Handshake(c, loaded, []*Certificate{testCA(t).Certificate()}, true); err != nil {
		t.Fatalf("handshake with loaded credential: %v", err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("server side: %v", err)
	}
}

func TestLoadCredentialErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.pem")
	os.WriteFile(empty, []byte("not pem at all"), 0o600)
	if _, err := LoadCredential(empty); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadCredential(filepath.Join(dir, "missing.pem")); err == nil {
		t.Error("missing file accepted")
	}
	// Certificate without key.
	certOnly := filepath.Join(dir, "certonly.pem")
	if err := SaveCertificate(testCA(t).Certificate(), certOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCredential(certOnly); err == nil {
		t.Error("credential without key accepted")
	}
	// Mismatched key and certificate.
	a := issue(t, "store-a")
	bCred := issue(t, "store-b")
	mixed := &Credential{Cert: a.Cert, Key: bCred.Key, Chain: a.Chain}
	mixedPath := filepath.Join(dir, "mixed.pem")
	if err := SaveCredential(mixed, mixedPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCredential(mixedPath); err == nil {
		t.Error("mismatched key accepted")
	}
}
