package gsi

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
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

// oidProxyCertInfo is RFC 3820's proxyCertInfo extension, which marks a
// proxy certificate as Globus marks it.
var oidProxyCertInfo = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 1, 14}

// proxyCertInfo is the extension's DER value: ProxyCertInfo with no path
// length limit and the policy id-ppl-inheritAll (1.3.6.1.5.5.7.21.1), under
// which a proxy holds every right of its signer.
var proxyCertInfo = []byte{0x30, 0x0c, 0x30, 0x0a, 0x06, 0x08, 0x2b, 6, 1, 5, 5, 7, 21, 1}

// errNotEd25519 marks a certificate whose key is not Ed25519: this package
// neither makes nor accepts any other kind.
var errNotEd25519 = errors.New("gsi: certificate key is not Ed25519")

// Certificate is an X.509 certificate with an Ed25519 key, together with
// the GSI fields derived from it. Every field of the embedded certificate
// is promoted except Subject and Issuer, which the identities shadow.
type Certificate struct {
	*x509.Certificate

	Subject Identity
	Issuer  Identity
	IsProxy bool // it carries the proxyCertInfo extension
}

// newCertificate derives the GSI fields of a parsed certificate.
func newCertificate(x *x509.Certificate) (*Certificate, error) {
	if _, ok := x.PublicKey.(ed25519.PublicKey); !ok {
		return nil, fmt.Errorf("%w (it is %T)", errNotEd25519, x.PublicKey)
	}
	c := &Certificate{Certificate: x, Subject: identityOf(x.Subject), Issuer: identityOf(x.Issuer)}
	for _, ext := range x.Extensions {
		c.IsProxy = c.IsProxy || ext.Id.Equal(oidProxyCertInfo)
	}
	return c, nil
}

// parseCertificate decodes one DER certificate.
func parseCertificate(der []byte) (*Certificate, error) {
	x, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return newCertificate(x)
}

func identityOf(n pkix.Name) Identity {
	id := Identity{CommonName: n.CommonName}
	if len(n.Organization) > 0 {
		id.Organization = n.Organization[0]
	}
	return id
}

// template returns the fields every certificate here shares.
func template(serial *big.Int, subject Identity, notAfter time.Time) *x509.Certificate {
	return &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{Organization: []string{subject.Organization}, CommonName: subject.CommonName},
		NotBefore:    time.Now().Add(-time.Minute),
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
}

// create makes the certificate tmpl describes for a fresh key, signed by
// signer under parent, the issuer's certificate; with a nil parent it is
// self-signed by the fresh key. It returns the certificate and the key.
func create(tmpl *x509.Certificate, parent *Certificate, signer ed25519.PrivateKey) (*Certificate, ed25519.PrivateKey, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("gsi: generate key: %w", err)
	}
	issuer := tmpl
	if parent != nil {
		issuer = parent.Certificate
	} else {
		signer = key
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, issuer, pub, signer)
	if err != nil {
		return nil, nil, fmt.Errorf("gsi: create certificate: %w", err)
	}
	cert, err := parseCertificate(der)
	return cert, key, err
}

// ValidAt reports whether the validity window covers the given instant.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// signedBy checks the certificate's signature under the issuer's key. It
// is not x509's CheckSignatureFrom, which refuses an issuer that is not a
// CA, and a proxy's issuer is not. A key of the wrong length is a bad
// signature, not a panic in ed25519.Verify.
func (c *Certificate) signedBy(issuer *Certificate) error {
	if pub, ok := issuer.PublicKey.(ed25519.PublicKey); !ok || len(pub) != ed25519.PublicKeySize ||
		issuer.CheckSignature(c.SignatureAlgorithm, c.RawTBSCertificate, c.Signature) != nil {
		return ErrBadSignature
	}
	return nil
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
	tmpl := template(big.NewInt(1), Identity{Organization: organization, CommonName: "CA"}, time.Now().Add(validity))
	tmpl.IsCA, tmpl.BasicConstraintsValid, tmpl.KeyUsage = true, true, x509.KeyUsageCertSign
	cert, key, err := create(tmpl, nil, nil)
	if err != nil {
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
	ca.mu.Lock()
	serial := new(big.Int).SetUint64(ca.next)
	ca.next++
	ca.mu.Unlock()
	subject := Identity{Organization: ca.cert.Subject.Organization, CommonName: commonName}
	cert, key, err := create(template(serial, subject, time.Now().Add(validity)), ca.cert, ca.key)
	if err != nil {
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
	for i, cert := range chain {
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
		if err := cert.signedBy(issuer); err != nil {
			return Identity{}, err
		}
	}
	return chain[0].Subject, nil
}

// anchor checks that cert is one of the trusted roots or directly signed by
// one of them. Being a root means being it byte for byte: a match on
// subject and signature alone would anchor the public root with a peer's
// own key put in it, under which the peer could sign any identity.
func anchor(cert *Certificate, roots []*Certificate) error {
	for _, root := range roots {
		if bytes.Equal(cert.Raw, root.Raw) {
			return nil
		}
		if cert.Issuer == root.Subject && root.IsCA && cert.signedBy(root) == nil {
			return nil
		}
	}
	return ErrUntrusted
}
