package gridftp

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"
)

// TestRelayCannotTakeDataChannel: an on-path relay forwards a GridFTP
// control session byte for byte and reads the server's replies for the
// 229 line that carries the PASV pairing token. With one, it would dial
// the data listener with the token ahead of the client and be the stream
// the RETR is sent to. The control session is protected, so the relay
// finds no readable 229 line and receives none of the file, and the
// client's own transfer through it succeeds.
func TestRelayCannotTakeDataChannel(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "events.db", 300_000, 7)

	relayLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relayLn.Close()
	pasv := regexp.MustCompile(`229 (\S+) (\S+)\r\n`)
	var mu sync.Mutex
	var token string
	var stolen []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := relayLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		s, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer s.Close()
		go func() {
			io.Copy(s, c)
			s.Close()
		}()
		var seen []byte
		buf := make([]byte, 32<<10)
		for {
			n, err := s.Read(buf)
			if n > 0 {
				seen = append(seen, buf[:n]...)
				if m := pasv.FindSubmatch(seen); m != nil && token == "" {
					mu.Lock()
					token = string(m[1])
					mu.Unlock()
					wg.Add(1)
					go func() {
						defer wg.Done()
						dc, err := net.Dial("tcp", string(m[2]))
						if err != nil {
							return
						}
						defer dc.Close()
						io.WriteString(dc, string(m[1])+"\n")
						dc.SetReadDeadline(time.Now().Add(5 * time.Second))
						got, _ := io.ReadAll(dc)
						mu.Lock()
						stolen = got
						mu.Unlock()
					}()
				}
				if _, err := c.Write(buf[:n]); err != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()

	// The context bounds the session: a client whose data stream was
	// taken would wait on its own forever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := DialContext(ctx, relayLn.Addr().String(), cred(t, "user/"+t.Name()), roots(t), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	local := filepath.Join(t.TempDir(), "out.db")
	_, getErr := cl.GetFile("events.db", local)
	cl.Close()
	relayLn.Close()
	wg.Wait()
	if token != "" || len(stolen) > 0 {
		t.Fatalf("the relay read PASV token %q off the control channel and received %d bytes of the file", token, len(stolen))
	}
	if getErr != nil {
		t.Fatalf("GetFile through the relay: %v", getErr)
	}
	if got, err := os.ReadFile(local); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the file through the relay: %d bytes, %v; want its %d bytes", len(got), err, len(want))
	}
}
