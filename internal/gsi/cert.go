package gsi

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors returned by certificate verification.
var (
	ErrExpired       = errors.New("gsi: certificate expired or not yet valid")
	ErrBadSignature  = errors.New("gsi: bad certificate signature")
	ErrUntrusted     = errors.New("gsi: chain does not end at a trusted root")
	ErrNotCA         = errors.New("gsi: issuer is not a certificate authority")
	ErrBadProxyName  = errors.New("gsi: proxy subject must extend issuer subject with /proxy")
	ErrEmptyChain    = errors.New("gsi: empty certificate chain")
	ErrChainTooLong  = errors.New("gsi: certificate chain too long")
	ErrChainMismatch = errors.New("gsi: chain issuer/subject mismatch")
)

// maxChainLen bounds chain verification work (root + user + proxies).
const maxChainLen = 8

// Certificate binds an identity to an Ed25519 public key, signed by an issuer.
// The encoding is a fixed, deterministic binary layout (see marshalTBS) so
// that signatures are stable across processes.
type Certificate struct {
	Serial    uint64
	Subject   Identity
	Issuer    Identity
	NotBefore time.Time
	NotAfter  time.Time
	IsCA      bool
	IsProxy   bool

	// PublicKey is the subject's Ed25519 public key.
	PublicKey ed25519.PublicKey

	// Signature is an Ed25519 signature over marshalTBS, made with the
	// issuer's private key.
	Signature []byte
}

// marshalTBS serializes the to-be-signed portion deterministically.
func (c *Certificate) marshalTBS() ([]byte, error) {
	pub, err := x509.MarshalPKIXPublicKey(c.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("gsi: marshal public key: %w", err)
	}
	var buf bytes.Buffer
	put := func(v interface{}) {
		switch x := v.(type) {
		case uint64:
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], x)
			buf.Write(b[:])
		case string:
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(len(x)))
			buf.Write(b[:])
			buf.WriteString(x)
		case []byte:
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(len(x)))
			buf.Write(b[:])
			buf.Write(x)
		case bool:
			if x {
				buf.WriteByte(1)
			} else {
				buf.WriteByte(0)
			}
		}
	}
	put(c.Serial)
	put(c.Subject.Organization)
	put(c.Subject.CommonName)
	put(c.Issuer.Organization)
	put(c.Issuer.CommonName)
	put(uint64(c.NotBefore.Unix()))
	put(uint64(c.NotAfter.Unix()))
	put(c.IsCA)
	put(c.IsProxy)
	put(pub)
	return buf.Bytes(), nil
}

// sign attaches a signature made by the issuer key.
func (c *Certificate) sign(issuerKey ed25519.PrivateKey) error {
	tbs, err := c.marshalTBS()
	if err != nil {
		return err
	}
	c.Signature = ed25519.Sign(issuerKey, tbs)
	return nil
}

// checkSignature verifies the certificate against the issuer's public key.
// A key of the wrong length is a bad signature, not a panic in
// ed25519.Verify.
func (c *Certificate) checkSignature(issuerPub ed25519.PublicKey) error {
	if len(issuerPub) != ed25519.PublicKeySize {
		return ErrBadSignature
	}
	tbs, err := c.marshalTBS()
	if err != nil {
		return err
	}
	if !ed25519.Verify(issuerPub, tbs, c.Signature) {
		return ErrBadSignature
	}
	return nil
}

// ValidAt reports whether the validity window covers the given instant.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// CA is a certificate authority: a self-signed root that can issue identity
// certificates for users and services in its trust domain. CA is safe for
// concurrent use.
type CA struct {
	cert *Certificate
	key  ed25519.PrivateKey

	mu   sync.Mutex
	next uint64
}

// KeyBits is ignored: keys are Ed25519, whose size is fixed. It stays only
// because bench/bench_test.go still assigns it.
var KeyBits = 2048

// NewCA creates a certificate authority for the given organization.
func NewCA(organization string, validity time.Duration) (*CA, error) {
	if organization == "" {
		return nil, errors.New("gsi: CA organization must be non-empty")
	}
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate CA key: %w", err)
	}
	now := time.Now()
	id := Identity{Organization: organization, CommonName: "CA"}
	cert := &Certificate{
		Serial:    1,
		Subject:   id,
		Issuer:    id,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(validity),
		IsCA:      true,
		PublicKey: pub,
	}
	if err := cert.sign(key); err != nil {
		return nil, err
	}
	return &CA{cert: cert, key: key, next: 2}, nil
}

// Certificate returns the CA's self-signed root certificate; distribute it
// to every site as the trust anchor.
func (ca *CA) Certificate() *Certificate { return ca.cert }

// Credential returns the CA's own certificate and key, for persisting the
// authority with SaveCredential.
func (ca *CA) Credential() *Credential {
	return &Credential{Cert: ca.cert, Key: ca.key}
}

// NewCAFromCredential reconstructs a certificate authority from a stored CA
// credential. Issued serial numbers restart from the current time, keeping
// them unique across restarts.
func NewCAFromCredential(cred *Credential) (*CA, error) {
	if cred == nil || cred.Cert == nil || cred.Key == nil {
		return nil, errors.New("gsi: incomplete CA credential")
	}
	if !cred.Cert.IsCA {
		return nil, errors.New("gsi: credential is not a CA certificate")
	}
	return &CA{
		cert: cred.Cert,
		key:  cred.Key,
		next: uint64(time.Now().UnixNano()),
	}, nil
}

// Issue creates a long-lived identity credential for a user or service in
// the CA's organization.
func (ca *CA) Issue(commonName string, validity time.Duration) (*Credential, error) {
	if commonName == "" {
		return nil, errors.New("gsi: common name must be non-empty")
	}
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate subject key: %w", err)
	}
	ca.mu.Lock()
	serial := ca.next
	ca.next++
	ca.mu.Unlock()
	now := time.Now()
	cert := &Certificate{
		Serial:    serial,
		Subject:   Identity{Organization: ca.cert.Subject.Organization, CommonName: commonName},
		Issuer:    ca.cert.Subject,
		NotBefore: now.Add(-time.Minute),
		NotAfter:  now.Add(validity),
		PublicKey: pub,
	}
	if err := cert.sign(ca.key); err != nil {
		return nil, err
	}
	return &Credential{
		Cert:  cert,
		Key:   key,
		Chain: []*Certificate{ca.cert},
	}, nil
}

// VerifyChain validates a certificate chain, leaf first, against a set of
// trusted roots. It returns the leaf's identity on success. Proxy
// certificates must be signed by the preceding entity certificate and their
// subject must extend the issuer's subject with a "/proxy" segment, exactly
// the GSI delegation rule.
func VerifyChain(chain []*Certificate, roots []*Certificate, now time.Time) (Identity, error) {
	if len(chain) == 0 {
		return Identity{}, ErrEmptyChain
	}
	if len(chain) > maxChainLen {
		return Identity{}, ErrChainTooLong
	}
	for i := 0; i < len(chain); i++ {
		cert := chain[i]
		if !cert.ValidAt(now) {
			return Identity{}, fmt.Errorf("%w: %s", ErrExpired, cert.Subject)
		}
		if i == len(chain)-1 {
			// Topmost presented certificate must be anchored in the roots:
			// it is either a root itself or signed by one.
			if err := anchor(cert, roots); err != nil {
				return Identity{}, err
			}
			continue
		}
		issuer := chain[i+1]
		if cert.Issuer != issuer.Subject {
			return Identity{}, fmt.Errorf("%w: %s issued by %s, next in chain is %s",
				ErrChainMismatch, cert.Subject, cert.Issuer, issuer.Subject)
		}
		if cert.IsProxy {
			if !cert.Subject.IsProxyFor(issuer.Subject) {
				return Identity{}, ErrBadProxyName
			}
			// A proxy's validity may not outlive its signer's.
			if cert.NotAfter.After(issuer.NotAfter) {
				return Identity{}, fmt.Errorf("%w: proxy outlives signer", ErrExpired)
			}
		} else if !issuer.IsCA {
			return Identity{}, ErrNotCA
		}
		if err := cert.checkSignature(issuer.PublicKey); err != nil {
			return Identity{}, err
		}
	}
	return chain[0].Subject, nil
}

// anchor checks that cert is one of the trusted roots or directly signed by
// one of them. Being a root means being it in every field: a match on
// subject and signature alone would anchor the public root with a peer's
// own key put in it, under which the peer could sign any identity.
func anchor(cert *Certificate, roots []*Certificate) error {
	enc, err := MarshalCertificate(cert)
	if err != nil {
		return err
	}
	for _, root := range roots {
		if rootEnc, err := MarshalCertificate(root); err == nil && bytes.Equal(enc, rootEnc) {
			return nil
		}
		if cert.Issuer == root.Subject && root.IsCA {
			if err := cert.checkSignature(root.PublicKey); err == nil {
				return nil
			}
		}
	}
	return ErrUntrusted
}
