package gsi

import (
	"crypto/ed25519"
	"crypto/tls"
	"crypto/x509/pkix"
	"errors"
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
// credential's own key, with the subject extended by "/proxy" and RFC
// 3820's proxyCertInfo extension. Services presented with the proxy can
// verify it back to the CA without ever seeing the user's long-lived key.
func (c *Credential) Delegate(validity time.Duration) (*Credential, error) {
	if c.Cert.IsCA {
		return nil, errors.New("gsi: refusing to delegate from a CA credential")
	}
	notAfter := time.Now().Add(validity)
	if notAfter.After(c.Cert.NotAfter) {
		notAfter = c.Cert.NotAfter // a proxy may not outlive its signer
	}
	subject := Identity{Organization: c.Cert.Subject.Organization, CommonName: c.Cert.Subject.CommonName + "/proxy"}
	tmpl := template(c.Cert.SerialNumber, subject, notAfter)
	tmpl.ExtraExtensions = []pkix.Extension{{Id: oidProxyCertInfo, Critical: true, Value: proxyCertInfo}}
	cert, key, err := create(tmpl, c.Cert, c.Key)
	if err != nil {
		return nil, err
	}
	return &Credential{
		Cert:  cert,
		Key:   key,
		Chain: c.FullChain(),
	}, nil
}

// tlsCertificate is the credential as the handshake presents it: its
// chain without the CA certificate at the top, which the peer holds among
// its roots (TLS lets a sender leave the root out), so the peer parses one
// certificate fewer.
func (c *Credential) tlsCertificate() tls.Certificate {
	chain := c.FullChain()
	if n := len(chain); n > 1 && chain[n-1].IsCA {
		chain = chain[:n-1]
	}
	out := tls.Certificate{PrivateKey: c.Key, Leaf: c.Cert.Certificate}
	for _, cert := range chain {
		out.Certificate = append(out.Certificate, cert.Raw)
	}
	return out
}
