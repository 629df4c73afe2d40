package gsi

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Credential is a private key together with its certificate and the chain
// of issuing certificates up to (and including) the trust root.
type Credential struct {
	Cert *Certificate
	Key  ed25519.PrivateKey

	// Chain lists the issuing certificates, leaf's issuer first, ending at
	// the root. For a CA-issued identity this is just [root]; for a proxy
	// it is [identity, root].
	Chain []*Certificate
}

// Identity returns the credential's subject.
func (c *Credential) Identity() Identity { return c.Cert.Subject }

// FullChain returns the presented chain: leaf first, root last.
func (c *Credential) FullChain() []*Certificate {
	out := make([]*Certificate, 0, len(c.Chain)+1)
	out = append(out, c.Cert)
	out = append(out, c.Chain...)
	return out
}

// Delegate creates a short-lived proxy credential, the GSI single sign-on
// mechanism: a fresh key pair whose certificate is signed by this
// credential's own key, with the subject extended by "/proxy". Services
// presented with the proxy can verify it back to the CA without ever seeing
// the user's long-lived key.
func (c *Credential) Delegate(validity time.Duration) (*Credential, error) {
	if c.Cert.IsCA {
		return nil, errors.New("gsi: refusing to delegate from a CA credential")
	}
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate proxy key: %w", err)
	}
	now := time.Now()
	notAfter := now.Add(validity)
	if notAfter.After(c.Cert.NotAfter) {
		notAfter = c.Cert.NotAfter // a proxy may not outlive its signer
	}
	cert := &Certificate{
		Serial:    c.Cert.Serial,
		Subject:   Identity{Organization: c.Cert.Subject.Organization, CommonName: c.Cert.Subject.CommonName + "/proxy"},
		Issuer:    c.Cert.Subject,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  notAfter,
		IsProxy:   true,
		PublicKey: pub,
	}
	if err := cert.sign(c.Key); err != nil {
		return nil, err
	}
	return &Credential{
		Cert:  cert,
		Key:   key,
		Chain: c.FullChain(),
	}, nil
}

// SignData signs arbitrary bytes with the credential's Ed25519 key. Used by
// the handshake.
func (c *Credential) SignData(data []byte) ([]byte, error) {
	if len(c.Key) != ed25519.PrivateKeySize {
		return nil, errors.New("gsi: sign data: credential has no Ed25519 key")
	}
	return ed25519.Sign(c.Key, data), nil
}

// VerifyData verifies a SignData signature against a certificate. A
// certificate key of the wrong length is a bad signature, not a panic in
// ed25519.Verify.
func VerifyData(cert *Certificate, data, sig []byte) error {
	if len(cert.PublicKey) != ed25519.PublicKeySize || !ed25519.Verify(cert.PublicKey, data, sig) {
		return ErrBadSignature
	}
	return nil
}

// --- wire encoding -------------------------------------------------------

// certWriter/certReader implement the deterministic binary encoding used to
// ship certificates across the network. Lengths are 32-bit big-endian; the
// layout mirrors marshalTBS with the signature appended.

type certWriter struct{ buf bytes.Buffer }

func (w *certWriter) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

func (w *certWriter) bytes(v []byte) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(len(v)))
	w.buf.Write(b[:])
	w.buf.Write(v)
}

func (w *certWriter) str(v string) { w.bytes([]byte(v)) }

func (w *certWriter) bool(v bool) {
	if v {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

type certReader struct {
	b   []byte
	err error
}

func (r *certReader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[:8])
	r.b = r.b[8:]
	return v
}

func (r *certReader) bytes() []byte {
	if r.err != nil || len(r.b) < 4 {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	n := binary.BigEndian.Uint32(r.b[:4])
	r.b = r.b[4:]
	if uint32(len(r.b)) < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *certReader) str() string { return string(r.bytes()) }

func (r *certReader) bool() bool {
	if r.err != nil || len(r.b) < 1 {
		r.err = io.ErrUnexpectedEOF
		return false
	}
	v := r.b[0] != 0
	r.b = r.b[1:]
	return v
}

// MarshalCertificate encodes a certificate for the wire.
func MarshalCertificate(c *Certificate) ([]byte, error) {
	pub, err := x509.MarshalPKIXPublicKey(c.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("gsi: marshal public key: %w", err)
	}
	var w certWriter
	w.u64(c.Serial)
	w.str(c.Subject.Organization)
	w.str(c.Subject.CommonName)
	w.str(c.Issuer.Organization)
	w.str(c.Issuer.CommonName)
	w.u64(uint64(c.NotBefore.Unix()))
	w.u64(uint64(c.NotAfter.Unix()))
	w.bool(c.IsCA)
	w.bool(c.IsProxy)
	w.bytes(pub)
	w.bytes(c.Signature)
	return w.buf.Bytes(), nil
}

// errNotEd25519 marks a certificate whose key is not Ed25519, such as one
// issued while this package still used RSA: it must be re-issued.
var errNotEd25519 = errors.New("gsi: certificate key is not Ed25519")

// UnmarshalCertificate decodes a certificate from the wire.
func UnmarshalCertificate(b []byte) (*Certificate, error) {
	r := certReader{b: b}
	c := &Certificate{}
	c.Serial = r.u64()
	c.Subject.Organization = r.str()
	c.Subject.CommonName = r.str()
	c.Issuer.Organization = r.str()
	c.Issuer.CommonName = r.str()
	c.NotBefore = time.Unix(int64(r.u64()), 0)
	c.NotAfter = time.Unix(int64(r.u64()), 0)
	c.IsCA = r.bool()
	c.IsProxy = r.bool()
	pubDER := append([]byte(nil), r.bytes()...)
	c.Signature = append([]byte(nil), r.bytes()...)
	if r.err != nil {
		return nil, fmt.Errorf("gsi: truncated certificate: %w", r.err)
	}
	if len(r.b) != 0 {
		return nil, errors.New("gsi: trailing bytes after certificate")
	}
	pub, err := x509.ParsePKIXPublicKey(pubDER)
	if err != nil {
		return nil, fmt.Errorf("gsi: parse public key: %w", err)
	}
	edPub, ok := pub.(ed25519.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w (it is %T)", errNotEd25519, pub)
	}
	c.PublicKey = edPub
	return c, nil
}

// MarshalChain encodes a chain of certificates, leaf first.
func MarshalChain(chain []*Certificate) ([]byte, error) {
	var w certWriter
	w.u64(uint64(len(chain)))
	for _, c := range chain {
		enc, err := MarshalCertificate(c)
		if err != nil {
			return nil, err
		}
		w.bytes(enc)
	}
	return w.buf.Bytes(), nil
}

// UnmarshalChain decodes a chain of certificates, leaf first.
func UnmarshalChain(b []byte) ([]*Certificate, error) {
	r := certReader{b: b}
	n := r.u64()
	if r.err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if n > maxChainLen {
		return nil, ErrChainTooLong
	}
	chain := make([]*Certificate, 0, n)
	for i := uint64(0); i < n; i++ {
		enc := r.bytes()
		if r.err != nil {
			return nil, io.ErrUnexpectedEOF
		}
		c, err := UnmarshalCertificate(enc)
		if err != nil {
			return nil, err
		}
		chain = append(chain, c)
	}
	if len(r.b) != 0 {
		return nil, errors.New("gsi: trailing bytes after chain")
	}
	return chain, nil
}
