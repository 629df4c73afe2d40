package gsi

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// legacyRSACredential returns a user certificate, its root and the user's
// key encoded exactly as this package wrote them before it switched to
// Ed25519: RSA PKIX keys, each certificate signed RSASSA-PKCS1-v1.5 over
// the SHA-256 of its to-be-signed bytes, which are its wire encoding
// without the trailing signature.
func legacyRSACredential(t *testing.T) (leaf, root []byte, key *rsa.PrivateKey) {
	t.Helper()
	caKey, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	key, err = rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	encode := func(serial uint64, subject, issuer Identity, isCA bool, pub *rsa.PublicKey, signer *rsa.PrivateKey) []byte {
		der, err := x509.MarshalPKIXPublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		var w certWriter
		w.u64(serial)
		w.str(subject.Organization)
		w.str(subject.CommonName)
		w.str(issuer.Organization)
		w.str(issuer.CommonName)
		w.u64(uint64(now.Add(-time.Minute).Unix()))
		w.u64(uint64(now.Add(time.Hour).Unix()))
		w.bool(isCA)
		w.bool(false)
		w.bytes(der)
		h := sha256.Sum256(w.buf.Bytes())
		sig, err := rsa.SignPKCS1v15(rand.Reader, signer, crypto.SHA256, h[:])
		if err != nil {
			t.Fatal(err)
		}
		w.bytes(sig)
		return w.buf.Bytes()
	}
	caID := Identity{Organization: "DataGrid", CommonName: "CA"}
	root = encode(1, caID, caID, true, &caKey.PublicKey, caKey)
	leaf = encode(2, Identity{Organization: "DataGrid", CommonName: "legacy"}, caID, false, &key.PublicKey, caKey)
	return leaf, root, key
}

// TestLoadRSACredentialNamesFileAndGridca: a credential or CA file written
// before the switch is refused with an error that names the file and says
// to re-issue it with gridca.
func TestLoadRSACredentialNamesFileAndGridca(t *testing.T) {
	leaf, root, key := legacyRSACredential(t)
	dir := t.TempDir()
	credPath := filepath.Join(dir, "legacy.pem")
	var file []byte
	file = append(file, pem.EncodeToMemory(&pem.Block{Type: pemCertType, Bytes: leaf})...)
	file = append(file, pem.EncodeToMemory(&pem.Block{Type: pemCertType, Bytes: root})...)
	file = append(file, pem.EncodeToMemory(&pem.Block{Type: "RSA PRIVATE KEY", Bytes: x509.MarshalPKCS1PrivateKey(key)})...)
	if err := os.WriteFile(credPath, file, 0o600); err != nil {
		t.Fatal(err)
	}
	caPath := filepath.Join(dir, "ca.pem")
	if err := os.WriteFile(caPath, pem.EncodeToMemory(&pem.Block{Type: pemCertType, Bytes: root}), 0o644); err != nil {
		t.Fatal(err)
	}
	_, credErr := LoadCredential(credPath)
	_, caErr := LoadCertificate(caPath)
	for path, err := range map[string]error{credPath: credErr, caPath: caErr} {
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "re-issue it with gridca") {
			t.Errorf("loading RSA-era %s: %v; want an error naming the file and gridca", filepath.Base(path), err)
		}
	}
}

// TestHandshakeRefusesRSAChain: a peer on either side that presents an
// RSA-keyed chain fails the handshake with ErrHandshake.
func TestHandshakeRefusesRSAChain(t *testing.T) {
	leaf, root, _ := legacyRSACredential(t)
	var w certWriter
	w.u64(2)
	w.bytes(leaf)
	w.bytes(root)
	rsaChain := w.buf.Bytes()
	nonce := make([]byte, nonceLen)
	roots := []*Certificate{testCA(t).Certificate()}
	me := issue(t, "flagday-peer")

	for _, asClient := range []bool{false, true} {
		c, s := net.Pipe()
		// The legacy peer sends its hello (and, as server, a proof) and
		// reads whatever it is sent until the connection drops.
		go func() {
			defer s.Close()
			if asClient {
				readMsg(s)
				readMsg(s)
			}
			writeMsg(s, rsaChain)
			writeMsg(s, nonce)
			if asClient {
				writeMsg(s, make([]byte, 128))
			}
		}()
		_, err := Handshake(c, me, roots, asClient)
		c.Close()
		if !errors.Is(err, ErrHandshake) {
			t.Errorf("asClient=%v: handshake with an RSA peer: %v; want ErrHandshake", asClient, err)
		}
	}
}
