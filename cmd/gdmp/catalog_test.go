package main

import (
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/gsi"
	"gdmp/internal/retry"
	"gdmp/internal/rpc"
)

// TestCatalogReplyDecodedWhole serves `gdmp catalog` hand-built
// gdmp.catalog replies. A reply whose count promises more entries than it
// carries is an error, and nothing of it is printed; a whole reply prints
// its count and every entry.
func TestCatalogReplyDecodedWhole(t *testing.T) {
	entry := func(e *rpc.Encoder) {
		e.String("lfn://run/a.db")
		e.String("run/a.db")
		e.Int64(42)
		e.String("1a2b3c4d")
		e.String("flat")
		e.String(string(core.StateDisk))
	}
	for _, tc := range []struct {
		name    string
		count   uint32
		wantErr bool
		want    string
	}{
		{"truncated", 3, true, ""},
		{"whole", 1, false, "1 files:\n  lfn://run/a.db  path=run/a.db size=42 crc=1a2b3c4d type=flat state=disk\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, credPath, caPath := catalogServer(t, func(e *rpc.Encoder) {
				e.Uint32(tc.count)
				entry(e)
			})
			out, err := captureStdout(t, func() error {
				return run(context.Background(), credPath, caPath, "", 1, 1, 0, retry.Policy{}, []string{"catalog", addr})
			})
			if (err != nil) != tc.wantErr {
				t.Fatalf("gdmp catalog: err = %v, want error %v", err, tc.wantErr)
			}
			if out != tc.want {
				t.Fatalf("gdmp catalog printed %q, want %q", out, tc.want)
			}
		})
	}
}

// catalogServer serves gdmp.catalog with the reply reply writes and
// returns its address and the paths of a client credential and the CA.
func catalogServer(t *testing.T, reply func(*rpc.Encoder)) (addr, credPath, caPath string) {
	t.Helper()
	ca, err := gsi.NewCA("Catalog Reply CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	roots := []*gsi.Certificate{ca.Certificate()}
	srvCred, err := ca.Issue("gdmp/site", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cliCred, err := ca.Issue("operator", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	credPath, caPath = filepath.Join(dir, "operator.pem"), filepath.Join(dir, "ca.pem")
	if err := gsi.SaveCredential(cliCred, credPath); err != nil {
		t.Fatal(err)
	}
	if err := gsi.SaveCertificate(ca.Certificate(), caPath); err != nil {
		t.Fatal(err)
	}
	acl := gsi.NewACL()
	acl.AllowAll(gsi.Operation(core.MethodCatalog))
	srv := rpc.NewServer(srvCred, roots, acl, nil)
	srv.Handle(core.MethodCatalog, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		reply(resp)
		return args.Finish()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), credPath, caPath
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	return out, err
}
