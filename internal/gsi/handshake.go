package gsi

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
}

const (
	nonceLen   = 32
	roleClient = byte(0x01)
	roleServer = byte(0x02)

	// maxHandshake caps a message length an unauthenticated peer claims,
	// checked before anything is allocated for it. The largest honest
	// message is a chain: an 8-byte count, then per certificate a 4-byte
	// length and 158 fixed bytes (serial 8, times 16, flags 2, four name
	// lengths 16, the 44-byte PKIX Ed25519 key and the 64-byte signature
	// with their lengths 116) plus the four names. maxChainLen certificates
	// are 8 + 8·162 = 1,304 fixed bytes, which leaves 15,080 of 16 KiB for
	// 32 names: 471 bytes each.
	maxHandshake = 16 << 10
)

// ErrHandshake is wrapped around any mutual-authentication failure.
var ErrHandshake = errors.New("gsi: handshake failed")

// writeMsg frames a handshake message as 4-byte big-endian length plus
// payload. The handshake runs before the RPC layer is established, so it
// carries its own minimal framing.
func writeMsg(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readMsg(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxHandshake {
		return nil, fmt.Errorf("%w: oversized message (%d bytes)", ErrHandshake, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// transcript builds the byte string each side signs: both nonces and the
// signer's role, preventing replay and reflection attacks.
func transcript(role byte, clientNonce, serverNonce []byte) []byte {
	out := make([]byte, 0, 1+2*nonceLen)
	out = append(out, role)
	out = append(out, clientNonce...)
	out = append(out, serverNonce...)
	return out
}

// decodeAndVerifyChain parses a peer chain and validates it against roots.
func decodeAndVerifyChain(chainBytes []byte, roots []*Certificate) (*Peer, error) {
	chain, err := UnmarshalChain(chainBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: decode peer chain: %v", ErrHandshake, err)
	}
	id, err := VerifyChain(chain, roots, time.Now())
	if err != nil {
		return nil, fmt.Errorf("%w: verify peer chain: %v", ErrHandshake, err)
	}
	return &Peer{Identity: id, Base: id.Base(), Chain: chain}, nil
}

// Handshake performs mutual authentication over rw. Both sides exchange
// certificate chains and fresh nonces, then prove possession of their
// private keys by signing the joint transcript. asClient selects the
// message order and role byte. On success it returns the verified peer.
//
// The protocol (client view):
//
//	-> chain_c, nonce_c
//	<- chain_s, nonce_s, sign_s(0x02 || nonce_c || nonce_s)
//	-> sign_c(0x01 || nonce_c || nonce_s)
//
// Each side verifies the peer's chain as soon as it arrives and aborts the
// connection on failure, so an unauthenticated peer never advances the
// protocol.
func Handshake(rw io.ReadWriter, cred *Credential, roots []*Certificate, asClient bool) (*Peer, error) {
	if cred == nil {
		return nil, fmt.Errorf("%w: nil credential", ErrHandshake)
	}
	myChain, err := MarshalChain(cred.FullChain())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	myNonce := make([]byte, nonceLen)
	if _, err := rand.Read(myNonce); err != nil {
		return nil, fmt.Errorf("%w: nonce: %v", ErrHandshake, err)
	}

	if asClient {
		return clientHandshake(rw, cred, roots, myChain, myNonce)
	}
	return serverHandshake(rw, cred, roots, myChain, myNonce)
}

func clientHandshake(rw io.ReadWriter, cred *Credential, roots []*Certificate, myChain, clientNonce []byte) (*Peer, error) {
	// -> client hello
	if err := writeMsg(rw, myChain); err != nil {
		return nil, fmt.Errorf("%w: send chain: %v", ErrHandshake, err)
	}
	if err := writeMsg(rw, clientNonce); err != nil {
		return nil, fmt.Errorf("%w: send nonce: %v", ErrHandshake, err)
	}

	// <- server hello + proof
	peerChainBytes, err := readMsg(rw)
	if err != nil {
		return nil, fmt.Errorf("%w: read server chain: %v", ErrHandshake, err)
	}
	serverNonce, err := readMsg(rw)
	if err != nil {
		return nil, fmt.Errorf("%w: read server nonce: %v", ErrHandshake, err)
	}
	if len(serverNonce) != nonceLen {
		return nil, fmt.Errorf("%w: bad server nonce length %d", ErrHandshake, len(serverNonce))
	}
	peerSig, err := readMsg(rw)
	if err != nil {
		return nil, fmt.Errorf("%w: read server proof: %v", ErrHandshake, err)
	}

	peer, err := decodeAndVerifyChain(peerChainBytes, roots)
	if err != nil {
		return nil, err
	}
	if err := VerifyData(peer.Chain[0], transcript(roleServer, clientNonce, serverNonce), peerSig); err != nil {
		return nil, fmt.Errorf("%w: server proof invalid", ErrHandshake)
	}

	// -> client proof
	proof, err := cred.SignData(transcript(roleClient, clientNonce, serverNonce))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if err := writeMsg(rw, proof); err != nil {
		return nil, fmt.Errorf("%w: send proof: %v", ErrHandshake, err)
	}
	return peer, nil
}

func serverHandshake(rw io.ReadWriter, cred *Credential, roots []*Certificate, myChain, serverNonce []byte) (*Peer, error) {
	// <- client hello
	peerChainBytes, err := readMsg(rw)
	if err != nil {
		return nil, fmt.Errorf("%w: read client chain: %v", ErrHandshake, err)
	}
	clientNonce, err := readMsg(rw)
	if err != nil {
		return nil, fmt.Errorf("%w: read client nonce: %v", ErrHandshake, err)
	}
	if len(clientNonce) != nonceLen {
		return nil, fmt.Errorf("%w: bad client nonce length %d", ErrHandshake, len(clientNonce))
	}

	// Reject untrusted clients before revealing anything further.
	peer, err := decodeAndVerifyChain(peerChainBytes, roots)
	if err != nil {
		return nil, err
	}

	// -> server hello + proof
	proof, err := cred.SignData(transcript(roleServer, clientNonce, serverNonce))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if err := writeMsg(rw, myChain); err != nil {
		return nil, fmt.Errorf("%w: send chain: %v", ErrHandshake, err)
	}
	if err := writeMsg(rw, serverNonce); err != nil {
		return nil, fmt.Errorf("%w: send nonce: %v", ErrHandshake, err)
	}
	if err := writeMsg(rw, proof); err != nil {
		return nil, fmt.Errorf("%w: send proof: %v", ErrHandshake, err)
	}

	// <- client proof
	peerSig, err := readMsg(rw)
	if err != nil {
		return nil, fmt.Errorf("%w: read client proof: %v", ErrHandshake, err)
	}
	if err := VerifyData(peer.Chain[0], transcript(roleClient, clientNonce, serverNonce), peerSig); err != nil {
		return nil, fmt.Errorf("%w: client proof invalid", ErrHandshake)
	}
	return peer, nil
}
