// Package gsi is the Grid Security Infrastructure (GSI) the paper relies
// on [FKT98], as a profile of the Go standard library's TLS 1.3:
// public-key credentials issued by a certificate authority, proxy
// credentials for single sign-on, mutual authentication of every
// client/server interaction, a protected session after it, and simple
// authorization maps. Section 4.1 of the paper: "Every client request to a
// GDMP server is authenticated and authorized by a security service."
//
// Certificates are X.509 with Ed25519 keys (crypto/x509), and the session
// is crypto/tls 1.3 with both sides' chains required. What this package
// adds is what is specific to GSI: identities as "/O=Org/CN=Name" names,
// delegation via RFC 3820 proxy certificates whose subject extends the
// issuer's subject and which are signed by the issuer's own key, the chain
// rules that verify them back to a CA, and the gridmap ACL.
package gsi

import (
	"fmt"
	"strings"
)

// Identity is a distinguished name in the Grid trust domain, printed in the
// familiar "/O=Org/CN=Name" form used by Globus tools.
type Identity struct {
	// Organization is the trust domain, e.g. "DataGrid".
	Organization string

	// CommonName identifies the entity, e.g. "gdmp/cern.ch" for a service
	// or "Heinz" for a user. Proxy credentials append "/proxy" segments.
	CommonName string
}

// String renders the identity as a Globus-style distinguished name.
func (id Identity) String() string {
	return "/O=" + id.Organization + "/CN=" + id.CommonName
}

// IsZero reports whether the identity is empty.
func (id Identity) IsZero() bool {
	return id.Organization == "" && id.CommonName == ""
}

// Base strips any "/proxy" suffixes, returning the identity of the original
// long-lived credential that performed the delegation. Authorization is
// always decided against the base identity, exactly as GSI maps proxy
// certificates back to the end entity.
func (id Identity) Base() Identity {
	cn := id.CommonName
	for strings.HasSuffix(cn, "/proxy") {
		cn = strings.TrimSuffix(cn, "/proxy")
	}
	return Identity{Organization: id.Organization, CommonName: cn}
}

// IsProxyFor reports whether id is a (possibly multi-level) proxy of base.
func (id Identity) IsProxyFor(base Identity) bool {
	if id.Organization != base.Organization {
		return false
	}
	if id.CommonName == base.CommonName {
		return false
	}
	return strings.HasPrefix(id.CommonName, base.CommonName) &&
		strings.HasSuffix(id.CommonName, "/proxy") &&
		id.Base().CommonName == base.Base().CommonName
}

// ParseIdentity parses a "/O=Org/CN=Name" distinguished name.
func ParseIdentity(s string) (Identity, error) {
	var id Identity
	rest := s
	for rest != "" {
		if !strings.HasPrefix(rest, "/") {
			return Identity{}, fmt.Errorf("gsi: malformed DN %q", s)
		}
		rest = rest[1:]
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return Identity{}, fmt.Errorf("gsi: malformed DN component in %q", s)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		// The value runs until the next "/X=" component boundary. CN values
		// may themselves contain '/' (e.g. "gdmp/cern.ch", proxy suffixes),
		// so only a slash followed by "KEY=" terminates the value.
		end := len(rest)
		for i := 0; i < len(rest); i++ {
			if rest[i] == '/' {
				if j := strings.IndexByte(rest[i+1:], '='); j >= 0 && !strings.Contains(rest[i+1:i+1+j], "/") {
					end = i
					break
				}
			}
		}
		val := rest[:end]
		rest = rest[end:]
		switch key {
		case "O":
			id.Organization = val
		case "CN":
			id.CommonName = val
		default:
			return Identity{}, fmt.Errorf("gsi: unsupported DN attribute %q in %q", key, s)
		}
	}
	if id.IsZero() {
		return Identity{}, fmt.Errorf("gsi: empty DN %q", s)
	}
	return id, nil
}
