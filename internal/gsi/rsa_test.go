package gsi

import (
	"bytes"
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"io"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The tests here pin the refusal of RSA keys, which this package used
// before it switched to Ed25519.

// rsaKeys returns a CA key and a user key of the RSA era's size.
func rsaKeys(t *testing.T) (caKey, key *rsa.PrivateKey) {
	t.Helper()
	caKey, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	key, err = rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return caKey, key
}

// legacyEncode returns a certificate encoded exactly as this package wrote
// them before the switch: length-prefixed fields, an RSA PKIX key, and an
// RSASSA-PKCS1-v1.5 signature over the SHA-256 of the fields before it.
func legacyEncode(t *testing.T, serial uint64, subject, issuer Identity, isCA bool, pub *rsa.PublicKey, signer *rsa.PrivateKey) []byte {
	t.Helper()
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	u64 := func(v uint64) { binary.Write(&buf, binary.BigEndian, v) }
	field := func(v []byte) {
		binary.Write(&buf, binary.BigEndian, uint32(len(v)))
		buf.Write(v)
	}
	flag := func(v bool) {
		if v {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	now := time.Now()
	u64(serial)
	field([]byte(subject.Organization))
	field([]byte(subject.CommonName))
	field([]byte(issuer.Organization))
	field([]byte(issuer.CommonName))
	u64(uint64(now.Add(-time.Minute).Unix()))
	u64(uint64(now.Add(time.Hour).Unix()))
	flag(isCA)
	flag(false)
	field(der)
	h := sha256.Sum256(buf.Bytes())
	sig, err := rsa.SignPKCS1v15(rand.Reader, signer, crypto.SHA256, h[:])
	if err != nil {
		t.Fatal(err)
	}
	field(sig)
	return buf.Bytes()
}

// TestLoadRSACredentialNamesFileAndGridca: a credential or CA file written
// before the switch is refused with an error that names the file and says
// to re-issue it with gridca.
func TestLoadRSACredentialNamesFileAndGridca(t *testing.T) {
	caKey, key := rsaKeys(t)
	caID := Identity{Organization: "DataGrid", CommonName: "CA"}
	root := legacyEncode(t, 1, caID, caID, true, &caKey.PublicKey, caKey)
	leaf := legacyEncode(t, 2, Identity{Organization: "DataGrid", CommonName: "legacy"}, caID, false, &key.PublicKey, caKey)

	dir := t.TempDir()
	credPath := filepath.Join(dir, "legacy.pem")
	var file []byte
	file = append(file, pem.EncodeToMemory(&pem.Block{Type: preTLSCertType, Bytes: leaf})...)
	file = append(file, pem.EncodeToMemory(&pem.Block{Type: preTLSCertType, Bytes: root})...)
	file = append(file, pem.EncodeToMemory(&pem.Block{Type: "RSA PRIVATE KEY", Bytes: x509.MarshalPKCS1PrivateKey(key)})...)
	if err := os.WriteFile(credPath, file, 0o600); err != nil {
		t.Fatal(err)
	}
	caPath := filepath.Join(dir, "ca.pem")
	if err := os.WriteFile(caPath, pem.EncodeToMemory(&pem.Block{Type: preTLSCertType, Bytes: root}), 0o644); err != nil {
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
// RSA-keyed X.509 chain, root and leaf, fails the handshake with
// ErrHandshake.
func TestHandshakeRefusesRSAChain(t *testing.T) {
	caKey, key := rsaKeys(t)
	caTmpl := template(big.NewInt(1), Identity{Organization: "DataGrid", CommonName: "CA"}, time.Now().Add(time.Hour))
	caTmpl.IsCA, caTmpl.BasicConstraintsValid, caTmpl.KeyUsage = true, true, x509.KeyUsageCertSign
	rootDER, err := x509.CreateCertificate(rand.Reader, caTmpl, caTmpl, &caKey.PublicKey, caKey)
	if err != nil {
		t.Fatal(err)
	}
	leafTmpl := template(big.NewInt(2), Identity{Organization: "DataGrid", CommonName: "legacy"}, time.Now().Add(time.Hour))
	leafDER, err := x509.CreateCertificate(rand.Reader, leafTmpl, caTmpl, &key.PublicKey, caKey)
	if err != nil {
		t.Fatal(err)
	}
	rsaCfg := &tls.Config{
		MinVersion:         tls.VersionTLS13,
		Certificates:       []tls.Certificate{{Certificate: [][]byte{leafDER, rootDER}, PrivateKey: key}},
		ClientAuth:         tls.RequireAnyClientCert,
		InsecureSkipVerify: true,
	}
	roots := []*Certificate{testCA(t).Certificate()}
	me := issue(t, "flagday-peer")

	for _, asClient := range []bool{false, true} {
		c, s := net.Pipe()
		// The RSA peer runs its side of the handshake and reads whatever
		// it is sent until the connection drops.
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer s.Close()
			var peer *tls.Conn
			if asClient {
				peer = tls.Server(s, rsaCfg)
			} else {
				peer = tls.Client(s, rsaCfg)
			}
			if peer.Handshake() == nil {
				io.Copy(io.Discard, peer)
			}
		}()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		_, err := Handshake(c, me, roots, asClient)
		c.Close()
		<-done
		if !errors.Is(err, ErrHandshake) {
			t.Errorf("asClient=%v: handshake with an RSA peer: %v; want ErrHandshake", asClient, err)
		}
	}
}
