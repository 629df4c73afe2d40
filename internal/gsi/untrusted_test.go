package gsi

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"
)

// The tests here feed the package the bytes and certificates an
// unauthenticated peer controls.

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadMsgRefusesOversizedLength: a claimed length one over the cap is
// refused from the header alone, with no byte of the body read and no
// buffer for it allocated; a message exactly at the cap is read.
func TestReadMsgRefusesOversizedLength(t *testing.T) {
	framed := func(n uint32) *bytes.Reader {
		b := make([]byte, 4+n)
		binary.BigEndian.PutUint32(b, n)
		return bytes.NewReader(b)
	}
	if msg, err := readMsg(framed(maxHandshake)); err != nil || len(msg) != maxHandshake {
		t.Fatalf("message at the cap: %d bytes, %v", len(msg), err)
	}
	over := framed(maxHandshake + 1)
	var err error
	n := allocated(func() { _, err = readMsg(over) })
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("length cap+1: got %v, want ErrHandshake", err)
	}
	if over.Len() != maxHandshake+1 {
		t.Fatalf("read %d body bytes of a refused message", maxHandshake+1-over.Len())
	}
	if n > 1<<10 {
		t.Fatalf("refusing a cap+1 length allocated %d bytes", n)
	}
	// The arithmetic behind the cap: a certificate is 158 bytes plus its
	// four names.
	root, _ := fixedChains(t)
	enc, err := MarshalCertificate(root)
	if err != nil {
		t.Fatal(err)
	}
	if names := 2*len("DataGrid") + 2*len("CA"); len(enc) != 158+names {
		t.Fatalf("certificate encodes to %d bytes, want 158 + %d of names", len(enc), names)
	}
}

// TestShortKeyRefusedWithoutPanic: ed25519.Verify panics on a public key of
// the wrong length, so a hand-built certificate carrying a 31-byte key must
// come back as a bad signature wherever it is used as a verifier.
func TestShortKeyRefusedWithoutPanic(t *testing.T) {
	ca := testCA(t)
	user := issue(t, "short-key")
	proxy, err := user.Delegate(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	short := *user.Cert
	short.PublicKey = short.PublicKey[:ed25519.PublicKeySize-1]
	if err := VerifyData(&short, []byte("transcript"), make([]byte, ed25519.SignatureSize)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("VerifyData with a 31-byte key: %v", err)
	}
	roots := []*Certificate{ca.Certificate()}
	if _, err := VerifyChain([]*Certificate{proxy.Cert, &short, ca.Certificate()}, roots, time.Now()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("proxy under a 31-byte issuer key: %v", err)
	}
	shortRoot := *ca.Certificate()
	shortRoot.PublicKey = shortRoot.PublicKey[:ed25519.PublicKeySize-1]
	if _, err := VerifyChain([]*Certificate{user.Cert}, []*Certificate{&shortRoot}, time.Now()); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("leaf under a 31-byte root key: %v", err)
	}
}

// TestVerifyChainRejectsRootWithSwappedKey: the top of a chain is anchored
// by being a trusted root only if it is that root in every field. A root
// matched on subject and signature alone lets a peer present the public
// root with its own key in it and sign any identity under that.
func TestVerifyChainRejectsRootWithSwappedKey(t *testing.T) {
	ca := testCA(t)
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	forgedRoot := *ca.Certificate()
	forgedRoot.PublicKey = pub
	now := time.Now()
	leaf := &Certificate{
		Serial:    7,
		Subject:   Identity{Organization: "DataGrid", CommonName: "gdmp/site1"},
		Issuer:    forgedRoot.Subject,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(time.Hour),
		PublicKey: pub,
	}
	if err := leaf.sign(key); err != nil {
		t.Fatal(err)
	}
	id, err := VerifyChain([]*Certificate{leaf, &forgedRoot}, []*Certificate{ca.Certificate()}, now)
	if !errors.Is(err, ErrUntrusted) {
		t.Fatalf("chain under a root with a swapped key: identity %v, error %v; want ErrUntrusted", id, err)
	}
}

// fixedNow is the instant the fuzz target verifies at, inside fixedChains'
// validity window.
var fixedNow = time.Unix(2e9, 0)

// fixedChains returns a root and a 1-, 2- and 3-level (proxy) chain under
// it, built from fixed keys and times, so that every fuzz worker process
// trusts the same root as the process that added the seeds.
func fixedChains(tb testing.TB) (*Certificate, [][]*Certificate) {
	tb.Helper()
	key := func(seed byte) ed25519.PrivateKey {
		return ed25519.NewKeyFromSeed(bytes.Repeat([]byte{seed}, ed25519.SeedSize))
	}
	caKey, userKey, proxyKey := key(1), key(2), key(3)
	mint := func(serial uint64, subject, issuer Identity, isCA, isProxy bool, subjectKey, issuerKey ed25519.PrivateKey) *Certificate {
		c := &Certificate{
			Serial: serial, Subject: subject, Issuer: issuer,
			NotBefore: time.Unix(1e9, 0), NotAfter: time.Unix(3e9, 0),
			IsCA: isCA, IsProxy: isProxy,
			PublicKey: subjectKey.Public().(ed25519.PublicKey),
		}
		if err := c.sign(issuerKey); err != nil {
			tb.Fatal(err)
		}
		return c
	}
	caID := Identity{Organization: "DataGrid", CommonName: "CA"}
	userID := Identity{Organization: "DataGrid", CommonName: "alice"}
	root := mint(1, caID, caID, true, false, caKey, caKey)
	user := mint(2, userID, caID, false, false, userKey, caKey)
	proxy := mint(2, Identity{Organization: "DataGrid", CommonName: "alice/proxy"}, userID, false, true, proxyKey, userKey)
	return root, [][]*Certificate{{root}, {user, root}, {proxy, user, root}}
}

// FuzzUnmarshalChain feeds a handshake's chain message to the decoder and
// the verifier. Neither may panic or allocate 64 KiB for one input, and a
// chain they accept must carry only genuine signatures: each certificate's
// under the next one's key, the top's under the root's (the root is
// self-signed, so that covers a chain ending at the root itself). The
// check calls ed25519.Verify directly, not VerifyChain's code.
func FuzzUnmarshalChain(f *testing.F) {
	root, chains := fixedChains(f)
	for _, chain := range chains {
		enc, err := MarshalChain(chain)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	roots := []*Certificate{root}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxHandshake {
			return // readMsg refuses it before the decoder sees it
		}
		var chain []*Certificate
		var err error
		if n := allocated(func() {
			if chain, err = UnmarshalChain(data); err == nil {
				_, err = VerifyChain(chain, roots, fixedNow)
			}
		}); n >= 64<<10 {
			t.Fatalf("%d bytes allocated for a %d-byte input", n, len(data))
		}
		if err != nil {
			return
		}
		for i, c := range chain {
			signer := root
			if i+1 < len(chain) {
				signer = chain[i+1]
			}
			tbs, err := c.marshalTBS()
			if err != nil || len(signer.PublicKey) != ed25519.PublicKeySize ||
				!ed25519.Verify(signer.PublicKey, tbs, c.Signature) {
				t.Fatalf("accepted a chain whose certificate %d (%s) is not genuinely signed by %s", i, c.Subject, signer.Subject)
			}
		}
	})
}
