package gsi_test

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/rpc"
)

// upgradeNote is the README section every flag-day refusal names.
const upgradeNote = `README "Upgrading to TLS"`

// logLines is a log destination a test reads from another goroutine.
type logLines chan string

func (l logLines) Write(p []byte) (int, error) {
	select {
	case l <- string(p):
	default:
	}
	return len(p), nil
}

// TestPreTLSRefusals pins the refusals of the flag day that moved GSI onto
// X.509 and TLS, against what the last build before it wrote, kept under
// testdata/pre-tls: gridca's ca.pem and an issued credential, and a
// client's first handshake message (a 4-byte length, then its chain).
//   - Loading either file fails with an error naming the file and the
//     upgrade note.
//   - An rpc server and a GridFTP server that read the old message refuse
//     it with ErrHandshake naming the note.
//   - A client whose server hangs up on its ClientHello, as an old server
//     does after reading a length it finds too large, gets the same.
func TestPreTLSRefusals(t *testing.T) {
	_, caErr := gsi.LoadCertificate("testdata/pre-tls/ca.pem")
	_, credErr := gsi.LoadCredential("testdata/pre-tls/site1.pem")
	for path, err := range map[string]error{"testdata/pre-tls/ca.pem": caErr, "testdata/pre-tls/site1.pem": credErr} {
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), upgradeNote) {
			t.Errorf("loading %s: %v; want an error naming the file and %s", path, err, upgradeNote)
		}
	}

	hello, err := os.ReadFile("testdata/pre-tls/hello.bin")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := gsi.NewCA("DataGrid", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue("gdmp/flagday", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	roots := []*gsi.Certificate{ca.Certificate()}
	logs := make(logLines, 16)
	rpcSrv := rpc.NewServer(cred, roots, nil)
	rpcSrv.SetLogger(log.New(logs, "", 0))
	ftpSrv, err := gridftp.NewServer(gridftp.ServerConfig{Root: t.TempDir(), Cred: cred, TrustRoots: roots, Logger: log.New(logs, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]interface {
		Serve(net.Listener) error
		Close() error
	}{"rpc": rpcSrv, "gridftp": ftpSrv} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		conn.Write(hello)
		io.Copy(io.Discard, conn) // until the server hangs up
		conn.Close()
		select {
		case line := <-logs:
			if !strings.Contains(line, gsi.ErrHandshake.Error()) || !strings.Contains(line, upgradeNote) {
				t.Errorf("%s server on a pre-TLS hello logged %q; want ErrHandshake naming %s", name, line, upgradeNote)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s server logged nothing on a pre-TLS hello", name)
		}
	}

	old, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	go func() {
		for {
			c, err := old.Accept()
			if err != nil {
				return
			}
			var length [4]byte
			io.ReadFull(c, length[:])
			c.Close()
		}
	}()
	dials := map[string]func() error{
		"rpc": func() error {
			_, err := rpc.DialContext(context.Background(), old.Addr().String(), cred, roots, rpc.WithTimeout(10*time.Second))
			return err
		},
		"gridftp": func() error {
			_, err := gridftp.Dial(old.Addr().String(), cred, roots, gridftp.WithTimeout(10*time.Second))
			return err
		},
	}
	for name, dial := range dials {
		if err := dial(); !errors.Is(err, gsi.ErrHandshake) || !strings.Contains(err.Error(), upgradeNote) {
			t.Errorf("%s client against a pre-TLS server: %v; want ErrHandshake naming %s", name, err, upgradeNote)
		}
	}
}
