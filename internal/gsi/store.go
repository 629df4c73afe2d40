package gsi

import (
	"crypto/ed25519"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"os"
)

// PEM block types used on disk.
const (
	pemCertType = "CERTIFICATE"
	pemKeyType  = "PRIVATE KEY" // PKCS#8

	// preTLSCertType is the block this package wrote its own certificate
	// encoding in before it switched to X.509 and TLS.
	preTLSCertType = "GDMP CERTIFICATE"
)

// SaveCertificate writes a certificate to path in PEM form (world-readable:
// certificates are public).
func SaveCertificate(cert *Certificate, path string) error {
	return os.WriteFile(path, pem.EncodeToMemory(&pem.Block{Type: pemCertType, Bytes: cert.Raw}), 0o644)
}

// LoadCertificate reads a PEM certificate written by SaveCertificate.
func LoadCertificate(path string) (*Certificate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(data)
	if block == nil || block.Type != pemCertType {
		return nil, notCertificate(path, block)
	}
	cert, err := parseCertificate(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("gsi: %s: %w", path, err)
	}
	return cert, nil
}

// SaveCredential writes a credential's certificate chain and private key to
// path. The file contains the leaf certificate, the issuing chain, and the
// key, and is created owner-readable only, like a Globus key file.
func SaveCredential(cred *Credential, path string) error {
	if cred == nil || cred.Key == nil {
		return errors.New("gsi: nil credential")
	}
	var out []byte
	for _, cert := range cred.FullChain() {
		out = append(out, pem.EncodeToMemory(&pem.Block{Type: pemCertType, Bytes: cert.Raw})...)
	}
	keyDER, err := x509.MarshalPKCS8PrivateKey(cred.Key)
	if err != nil {
		return fmt.Errorf("gsi: marshal private key: %w", err)
	}
	out = append(out, pem.EncodeToMemory(&pem.Block{Type: pemKeyType, Bytes: keyDER})...)
	return os.WriteFile(path, out, 0o600)
}

// LoadCredential reads a credential written by SaveCredential.
func LoadCredential(path string) (*Credential, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var certs []*Certificate
	cred := &Credential{}
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		switch block.Type {
		case pemCertType:
			cert, err := parseCertificate(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("gsi: %s: %w", path, err)
			}
			certs = append(certs, cert)
		case pemKeyType:
			key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("gsi: parse private key in %s: %w", path, err)
			}
			edKey, ok := key.(ed25519.PrivateKey)
			if !ok {
				return nil, fmt.Errorf("gsi: private key in %s is %T, not Ed25519", path, key)
			}
			cred.Key = edKey
		default:
			return nil, notCertificate(path, block)
		}
	}
	if len(certs) == 0 {
		return nil, fmt.Errorf("gsi: no certificates in %s", path)
	}
	if cred.Key == nil {
		return nil, fmt.Errorf("gsi: no private key in %s", path)
	}
	cred.Cert = certs[0]
	cred.Chain = certs[1:]
	// The key must match the leaf certificate.
	if !cred.Key.Public().(ed25519.PublicKey).Equal(cred.Cert.PublicKey) {
		return nil, fmt.Errorf("gsi: key in %s does not match leaf certificate", path)
	}
	return cred, nil
}

// notCertificate is the error for a PEM block (or none) where a
// certificate was expected. A block from before TLS gets the upgrade note:
// nothing reads that encoding any more.
func notCertificate(path string, block *pem.Block) error {
	switch {
	case block == nil:
		return fmt.Errorf("gsi: %s does not contain a %s block", path, pemCertType)
	case block.Type == preTLSCertType:
		return fmt.Errorf("gsi: %s holds a %s from before TLS; re-issue it with gridca (%s)", path, preTLSCertType, upgradeNote)
	}
	return fmt.Errorf("gsi: unexpected PEM block %q in %s", block.Type, path)
}

// LoadGridmapFile reads the authorization gridmap at path (see
// ParseGridmap for the format).
func LoadGridmapFile(path string) (*ACL, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	acl, err := ParseGridmap(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return acl, nil
}
