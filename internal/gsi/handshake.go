package gsi

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// Peer describes the authenticated remote party after a handshake.
type Peer struct {
	// Identity is the subject of the peer's leaf certificate (possibly a
	// proxy identity).
	Identity Identity

	// Base is the underlying long-lived identity, with proxy suffixes
	// stripped; authorization decisions use this.
	Base Identity

	// Chain is the verified certificate chain the peer presented.
	Chain []*Certificate

	// Conn is the protected session: every byte exchanged with the peer
	// after the handshake goes through it. Closing the raw connection
	// under it is the way to sever a wedged session.
	Conn net.Conn
}

// ErrHandshake is wrapped around any mutual-authentication failure.
var ErrHandshake = errors.New("gsi: handshake failed")

// upgradeNote names the README section on peers and credential files from
// before the switch to TLS.
const upgradeNote = `see README "Upgrading to TLS"`

// Handshake runs a mutually authenticated TLS 1.3 handshake over conn and
// returns the verified peer, whose Conn carries the session from then on.
// Each side presents cred's chain and verifies the other's with
// VerifyChain against roots; asClient selects the TLS role.
//
// TLS 1.3 lets the client finish before the server has judged the
// client's chain, so a client the server refuses learns it at its first
// read. Session resumption is off: a server with tickets writes one after
// it reads the client's certificate, and the grid runs many identities in
// one process, where a client session cache would have to be per identity.
func Handshake(conn net.Conn, cred *Credential, roots []*Certificate, asClient bool) (*Peer, error) {
	if cred == nil {
		return nil, fmt.Errorf("%w: nil credential", ErrHandshake)
	}
	var peer *Peer
	cfg := &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{cred.tlsCertificate()},
		ClientAuth:   tls.RequireAnyClientCert,
		// The GSI chain rules are VerifyConnection's; the client skips
		// the standard library's verification only to reach it.
		InsecureSkipVerify:     true,
		SessionTicketsDisabled: true,
		VerifyConnection: func(cs tls.ConnectionState) (err error) {
			peer, err = verifyPeer(cs.PeerCertificates, roots, time.Now())
			return err
		},
	}
	var tc *tls.Conn
	if asClient {
		tc = tls.Client(conn, cfg)
	} else {
		tc = tls.Server(conn, cfg)
	}
	if err := tc.Handshake(); err != nil {
		if preTLSPeer(err) {
			return nil, fmt.Errorf("%w: %w (a peer from before TLS fails so: %s)", ErrHandshake, err, upgradeNote)
		}
		return nil, fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	peer.Conn = tc
	return peer, nil
}

// verifyPeer checks the chain a peer presented, leaf first: every key
// Ed25519 and the chain valid under the GSI rules.
func verifyPeer(certs []*x509.Certificate, roots []*Certificate, now time.Time) (*Peer, error) {
	if len(certs) > maxChainLen {
		return nil, ErrChainTooLong
	}
	chain := make([]*Certificate, len(certs))
	for i, x := range certs {
		c, err := newCertificate(x)
		if err != nil {
			return nil, err
		}
		chain[i] = c
	}
	id, err := VerifyChain(chain, roots, now)
	if err != nil {
		return nil, err
	}
	return &Peer{Identity: id, Base: id.Base(), Chain: chain}, nil
}

// preTLSPeer reports whether a handshake failed the way a peer from before
// TLS makes it fail: its first record is not TLS (the old handshake opened
// with a 4-byte length), or it hung up on the ClientHello.
func preTLSPeer(err error) bool {
	var rh tls.RecordHeaderError
	return errors.As(err, &rh) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET)
}
