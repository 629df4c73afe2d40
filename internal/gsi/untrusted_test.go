package gsi

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"math/big"
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

// withKey returns a copy of cert carrying pub in place of its key.
func withKey(cert *Certificate, pub ed25519.PublicKey) *Certificate {
	x := *cert.Certificate
	x.PublicKey = pub
	out := *cert
	out.Certificate = &x
	return &out
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
	short := withKey(user.Cert, user.Cert.PublicKey.(ed25519.PublicKey)[:ed25519.PublicKeySize-1])
	roots := []*Certificate{ca.Certificate()}
	if _, err := VerifyChain([]*Certificate{proxy.Cert, short, ca.Certificate()}, roots, time.Now()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("proxy under a 31-byte issuer key: %v", err)
	}
	shortRoot := withKey(ca.Certificate(), ca.Certificate().PublicKey.(ed25519.PublicKey)[:ed25519.PublicKeySize-1])
	if _, err := VerifyChain([]*Certificate{user.Cert}, []*Certificate{shortRoot}, time.Now()); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("leaf under a 31-byte root key: %v", err)
	}
}

// TestVerifyChainRejectsRootWithSwappedKey: the top of a chain is anchored
// by being a trusted root only if it is that root byte for byte. A root
// matched on its name alone lets a peer present the public root's subject
// over its own key and sign any identity under that.
func TestVerifyChainRejectsRootWithSwappedKey(t *testing.T) {
	ca := testCA(t)
	tmpl := template(big.NewInt(1), ca.Certificate().Subject, ca.Certificate().NotAfter)
	tmpl.IsCA, tmpl.BasicConstraintsValid, tmpl.KeyUsage = true, true, x509.KeyUsageCertSign
	forgedRoot, key, err := create(tmpl, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, _, err := create(template(big.NewInt(7), Identity{Organization: "DataGrid", CommonName: "gdmp/site1"}, time.Now().Add(time.Hour)), forgedRoot, key)
	if err != nil {
		t.Fatal(err)
	}
	id, err := VerifyChain([]*Certificate{leaf, forgedRoot}, []*Certificate{ca.Certificate()}, time.Now())
	if !errors.Is(err, ErrUntrusted) {
		t.Fatalf("chain under a root with a swapped key: identity %v, error %v; want ErrUntrusted", id, err)
	}
}

// TestNonEd25519KeyRefused: a certificate the trusted CA signed over a
// key that is not Ed25519 is refused wherever a chain comes in, so a peer
// presenting one fails the handshake. The key is P-256's base point, a
// valid public key that costs no key generation.
func TestNonEd25519KeyRefused(t *testing.T) {
	ca := testCA(t)
	p256 := elliptic.P256().Params()
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: p256.Gx, Y: p256.Gy}
	tmpl := template(big.NewInt(9), Identity{Organization: "DataGrid", CommonName: "gdmp/p256"}, time.Now().Add(time.Hour))
	der, err := x509.CreateCertificate(nil, tmpl, ca.Certificate().Certificate, pub, ca.key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyPeer([]*x509.Certificate{leaf, ca.Certificate().Certificate}, []*Certificate{ca.Certificate()}, time.Now()); !errors.Is(err, errNotEd25519) {
		t.Fatalf("chain with a P-256 leaf: %v; want errNotEd25519", err)
	}
}

// fixedNow is the instant the fuzz target verifies at, inside fixedChains'
// validity window.
var fixedNow = time.Unix(2e9, 0)

// fixedChains returns a root and three chains under it, each as
// concatenated DER: an identity and a proxy chain as the handshake sends
// them, without the root, and the proxy chain with it. They are built from
// fixed keys and times so that every fuzz worker process trusts the same
// root as the process that added the seeds (Ed25519 signatures are
// deterministic).
func fixedChains(tb testing.TB) (*Certificate, [][]byte) {
	tb.Helper()
	key := func(seed byte) ed25519.PrivateKey {
		return ed25519.NewKeyFromSeed(bytes.Repeat([]byte{seed}, ed25519.SeedSize))
	}
	mint := func(tmpl *x509.Certificate, issuer *x509.Certificate, subjectKey, issuerKey ed25519.PrivateKey) *Certificate {
		tmpl.NotBefore, tmpl.NotAfter = time.Unix(1e9, 0), time.Unix(3e9, 0)
		if issuer == nil {
			issuer = tmpl
		}
		der, err := x509.CreateCertificate(nil, tmpl, issuer, subjectKey.Public(), issuerKey)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := parseCertificate(der)
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	caKey, userKey, proxyKey := key(1), key(2), key(3)
	rootTmpl := template(big.NewInt(1), Identity{Organization: "DataGrid", CommonName: "CA"}, time.Time{})
	rootTmpl.IsCA, rootTmpl.BasicConstraintsValid, rootTmpl.KeyUsage = true, true, x509.KeyUsageCertSign
	root := mint(rootTmpl, nil, caKey, caKey)
	user := mint(template(big.NewInt(2), Identity{Organization: "DataGrid", CommonName: "alice"}, time.Time{}), root.Certificate, userKey, caKey)
	proxyTmpl := template(big.NewInt(2), Identity{Organization: "DataGrid", CommonName: "alice/proxy"}, time.Time{})
	proxyTmpl.ExtraExtensions = []pkix.Extension{{Id: oidProxyCertInfo, Critical: true, Value: proxyCertInfo}}
	proxy := mint(proxyTmpl, user.Certificate, proxyKey, userKey)
	join := func(certs ...*Certificate) []byte {
		var out []byte
		for _, c := range certs {
			out = append(out, c.Raw...)
		}
		return out
	}
	return root, [][]byte{join(user), join(proxy, user), join(proxy, user, root)}
}

// FuzzVerifyChain feeds the certificates a TLS peer presents, DER cut from
// the fuzz bytes, into the check the handshake's VerifyConnection makes.
// It may not panic, nor allocate more than the parse of the bytes present
// does, and a chain it accepts must be anchored and carry only genuine
// signatures: each certificate's under the next one's key, the top's under
// the root's (the root is self-signed, so that covers a chain ending at
// the root itself). The check calls ed25519.Verify directly, not
// VerifyChain's code.
func FuzzVerifyChain(f *testing.F) {
	root, chains := fixedChains(f)
	for _, chain := range chains {
		f.Add(chain)
		f.Add(chain[:len(chain)-1])
	}
	roots := []*Certificate{root}
	rootKey := root.PublicKey.(ed25519.PublicKey)
	f.Fuzz(func(t *testing.T, data []byte) {
		var peer *Peer
		err := errors.New("unparsed")
		if n := allocated(func() {
			if certs, perr := x509.ParseCertificates(data); perr == nil {
				peer, err = verifyPeer(certs, roots, fixedNow)
			}
		}); n >= 64<<10+64*uint64(len(data)) {
			t.Fatalf("%d bytes allocated for a %d-byte input", n, len(data))
		}
		if err != nil {
			return
		}
		for i, c := range peer.Chain {
			signer := rootKey
			if i+1 < len(peer.Chain) {
				signer = peer.Chain[i+1].PublicKey.(ed25519.PublicKey)
			}
			if !ed25519.Verify(signer, c.RawTBSCertificate, c.Signature) {
				t.Fatalf("accepted a chain whose certificate %d (%s) is not genuinely signed", i, c.Subject)
			}
		}
	})
}
