package gsi

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// tamperRelay sits between a client and a server on loopback TCP and
// forwards TLS records whole, one direction per goroutine. It counts the
// records it forwards each way and can flip the last byte of one of them:
// an active attacker on the wire.
type tamperRelay struct {
	mu      sync.Mutex
	records [2]int // forwarded records: [0] client→server, [1] server→client
}

// run relays between client and server until either side closes, flipping
// record flip[1] of direction flip[0] (none when flip[0] < 0).
func (r *tamperRelay) run(client, server net.Conn, flip [2]int) {
	var wg sync.WaitGroup
	pipe := func(dir int, from, to net.Conn) {
		defer wg.Done()
		defer to.Close()
		defer from.Close()
		for i := 0; ; i++ {
			var hdr [5]byte
			if _, err := io.ReadFull(from, hdr[:]); err != nil {
				return
			}
			rec := make([]byte, 5+int(binary.BigEndian.Uint16(hdr[3:])))
			copy(rec, hdr[:])
			if _, err := io.ReadFull(from, rec[5:]); err != nil {
				return
			}
			if flip == [2]int{dir, i} {
				rec[len(rec)-1] ^= 0xFF
			}
			r.mu.Lock()
			r.records[dir]++
			r.mu.Unlock()
			if _, err := to.Write(rec); err != nil {
				return
			}
		}
	}
	wg.Add(2)
	go pipe(0, client, server)
	go pipe(1, server, client)
	wg.Wait()
}

// exchange runs the handshake through a relay with the given flip, then
// one application record each way: the client's request and the server's
// echo of it. It reports whether everything arrived intact, and the
// records the relay forwarded each way.
func exchange(t *testing.T, client, server *Credential, roots []*Certificate, flip [2]int) (ok bool, records [2]int) {
	t.Helper()
	c, toClient := tcpPair(t)
	toServer, s := tcpPair(t)
	relay := &tamperRelay{}
	relayed := make(chan struct{})
	go func() {
		relay.run(toClient, toServer, flip)
		close(relayed)
	}()
	request := []byte("rc.delete lfn://cms/run7")
	served := make(chan bool, 1)
	go func() {
		defer s.Close()
		peer, err := Handshake(s, server, roots, false)
		if err != nil {
			served <- false
			return
		}
		buf := make([]byte, len(request))
		if _, err := io.ReadFull(peer.Conn, buf); err != nil || !bytes.Equal(buf, request) {
			served <- false
			return
		}
		_, err = peer.Conn.Write(buf)
		served <- err == nil
	}()
	ok = func() bool {
		defer c.Close()
		peer, err := Handshake(c, client, roots, true)
		if err != nil {
			return false
		}
		if _, err := peer.Conn.Write(request); err != nil {
			return false
		}
		buf := make([]byte, len(request))
		_, err = io.ReadFull(peer.Conn, buf)
		return err == nil && bytes.Equal(buf, request)
	}()
	ok = <-served && ok
	select {
	case <-relayed:
	case <-time.After(10 * time.Second):
		t.Fatalf("flip %v: relay still running", flip)
	}
	relay.mu.Lock()
	defer relay.mu.Unlock()
	return ok, relay.records
}

// TestHandshakeDetectsTampering flips a byte in each record of both
// flights and in the first application record each way; every position
// must be detected by one side or the other. It runs over loopback TCP,
// not net.Pipe: a side that detects tampering writes its alert while the
// other may still be writing, and net.Pipe buffers nothing.
func TestHandshakeDetectsTampering(t *testing.T) {
	roots := []*Certificate{testCA(t).Certificate()}
	client := issue(t, "mitm-client")
	server := issue(t, "mitm-server")
	_, records := exchange(t, client, server, roots, [2]int{-1, -1})
	// The client sends its hello, then change_cipher_spec, certificate,
	// certificate_verify, finished and the request; the server its hello,
	// change_cipher_spec, encrypted_extensions, certificate_request,
	// certificate, certificate_verify, finished and the echo.
	if records != [2]int{6, 8} {
		t.Fatalf("relay forwarded %v records, want [6 8] for a mutual TLS 1.3 exchange", records)
	}
	for dir := range records {
		for i := 0; i < records[dir]; i++ {
			if ok, _ := exchange(t, client, server, roots, [2]int{dir, i}); ok {
				t.Errorf("flipping record %d of direction %d went undetected", i, dir)
			}
		}
	}
}

// TestHandshakeCleanControl runs the same exchange through the relay with
// nothing flipped, so the failures above are attributable to tampering.
func TestHandshakeCleanControl(t *testing.T) {
	roots := []*Certificate{testCA(t).Certificate()}
	if ok, records := exchange(t, issue(t, "clean-client"), issue(t, "clean-server"), roots, [2]int{-1, -1}); !ok {
		t.Fatalf("clean exchange through the relay failed (records relayed: %v)", records)
	}
}
