package replica

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/rpc"
)

var (
	srvCAOnce sync.Once
	srvCA     *gsi.CA
)

func testCA(t *testing.T) *gsi.CA {
	t.Helper()
	srvCAOnce.Do(func() {
		ca, err := gsi.NewCA("DataGrid", time.Hour)
		if err != nil {
			panic(err)
		}
		srvCA = ca
	})
	return srvCA
}

// startCatalog runs a catalog server on loopback and returns a connected
// client plus the underlying catalog.
func startCatalog(t *testing.T) (*Client, *Catalog) {
	t.Helper()
	ca := testCA(t)
	roots := []*gsi.Certificate{ca.Certificate()}
	serverCred, err := ca.Issue("replicad/central", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	acl := gsi.NewACL()
	AllowCatalogUseAll(acl)

	cat := New(Options{})
	srv := NewServer(cat, serverCred, roots, acl)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return dialTestClient(t, ln.Addr().String()), cat
}

// dialTestClient connects a fresh site identity to the catalog at addr.
func dialTestClient(t *testing.T, addr string) *Client {
	t.Helper()
	ca := testCA(t)
	clientCred, err := ca.Issue("site-client", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr, clientCred, []*gsi.Certificate{ca.Certificate()}, rpc.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestClientRegisterLookupLocations(t *testing.T) {
	cl, _ := startCatalog(t)
	attrs := map[string]string{AttrSize: "4096", AttrOwner: "heinz"}
	if err := cl.Register(context.Background(), "lfn://cern.ch/events.db", attrs); err != nil {
		t.Fatal(err)
	}
	f, err := cl.Lookup(context.Background(), "lfn://cern.ch/events.db")
	if err != nil {
		t.Fatal(err)
	}
	if f.Attrs[AttrSize] != "4096" || f.Attrs[AttrOwner] != "heinz" {
		t.Fatalf("attrs over the wire = %v", f.Attrs)
	}
	if err := cl.AddReplica(context.Background(), "lfn://cern.ch/events.db", "gridftp://cern.ch/data/events.db"); err != nil {
		t.Fatal(err)
	}
	locs, err := cl.Locations(context.Background(), "lfn://cern.ch/events.db")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 1 || locs[0] != "gridftp://cern.ch/data/events.db" {
		t.Fatalf("Locations = %v", locs)
	}
}

func TestClientErrorsAreRemoteErrors(t *testing.T) {
	cl, _ := startCatalog(t)
	err := cl.AddReplica(context.Background(), "lfn://missing", "pfn")
	if err == nil {
		t.Fatal("expected error for missing lfn")
	}
	var re *rpc.RemoteError
	if !asRemote(err, &re) {
		t.Fatalf("expected RemoteError, got %T: %v", err, err)
	}
	if !strings.Contains(re.Msg, "not found") {
		t.Fatalf("remote message = %q", re.Msg)
	}
}

// TestCatalogErrorsCrossTheWire: the catalog's not-found and
// already-exists reach the client as codes, so errors.Is holds for the
// sentinels whatever the message says, and an error of neither kind
// matches neither.
func TestCatalogErrorsCrossTheWire(t *testing.T) {
	cl, _ := startCatalog(t)
	ctx := context.Background()
	if err := cl.AddReplica(ctx, "lfn://missing", "pfn"); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrExists) {
		t.Fatalf("AddReplica of a missing file: %v; want ErrNotFound", err)
	}
	if err := cl.Register(ctx, "lfn://twice", nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ctx, "lfn://twice", nil); !errors.Is(err, ErrExists) || errors.Is(err, ErrNotFound) {
		t.Fatalf("second Register: %v; want ErrExists", err)
	}
	_, err := cl.Query(ctx, "((")
	var re *rpc.RemoteError
	if !errors.As(err, &re) || re.Code != 0 || errors.Is(err, ErrExists) || errors.Is(err, ErrNotFound) {
		t.Fatalf("malformed query: %v; want an uncoded RemoteError", err)
	}
}

func asRemote(err error, target **rpc.RemoteError) bool {
	for err != nil {
		if re, ok := err.(*rpc.RemoteError); ok {
			*target = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestClientGenerateLFN(t *testing.T) {
	cl, _ := startCatalog(t)
	a, err := cl.GenerateLFN(context.Background(), "cern.ch", "run.db", map[string]string{AttrSize: "1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.GenerateLFN(context.Background(), "cern.ch", "run.db", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("generated LFNs collide: %q", a)
	}
	if !strings.HasPrefix(a, "lfn://cern.ch/run.db.") {
		t.Fatalf("generated LFN format: %q", a)
	}
}

func TestClientQueryAndCollections(t *testing.T) {
	cl, _ := startCatalog(t)
	for i, size := range []string{"10", "2000", "300000"} {
		name := "lfn://site/f" + string(rune('a'+i))
		if err := cl.Register(context.Background(), name, map[string]string{AttrSize: size}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := cl.Query(context.Background(), "(size>=2000)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Query returned %d entries, want 2", len(got))
	}

	if err := cl.CreateCollection(context.Background(), "dataset1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddToCollection(context.Background(), "dataset1", "lfn://site/fa"); err != nil {
		t.Fatal(err)
	}
	members, err := cl.ListCollection(context.Background(), "dataset1")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0] != "lfn://site/fa" {
		t.Fatalf("members = %v", members)
	}
	colls, err := cl.Collections(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(colls) != 1 || colls[0] != "dataset1" {
		t.Fatalf("collections = %v", colls)
	}
	if err := cl.RemoveFromCollection(context.Background(), "dataset1", "lfn://site/fa"); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteCollection(context.Background(), "dataset1", false); err != nil {
		t.Fatal(err)
	}
}

func TestClientSetAttrsDeleteFilesStats(t *testing.T) {
	cl, _ := startCatalog(t)
	if err := cl.Register(context.Background(), "f1", nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetAttrs(context.Background(), "f1", map[string]string{"crc32": "deadbeef"}); err != nil {
		t.Fatal(err)
	}
	f, _ := cl.Lookup(context.Background(), "f1")
	if f.Attrs["crc32"] != "deadbeef" {
		t.Fatalf("SetAttrs not applied: %v", f.Attrs)
	}
	files, err := cl.Files(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != "f1" {
		t.Fatalf("Files = %v", files)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if err := cl.AddReplica(context.Background(), "f1", "pfn1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveReplica(context.Background(), "f1", "pfn1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(context.Background(), "f1"); err != nil {
		t.Fatal(err)
	}
	if files, _ := cl.Files(context.Background()); len(files) != 0 {
		t.Fatalf("Files after delete = %v", files)
	}
}

func TestUnauthorizedCatalogAccess(t *testing.T) {
	ca := testCA(t)
	roots := []*gsi.Certificate{ca.Certificate()}
	serverCred, err := ca.Issue("replicad/secure", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	acl := gsi.NewACL() // nobody is allowed anything
	srv := NewServer(New(Options{}), serverCred, roots, acl)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cred, err := ca.Issue("outsider", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(ln.Addr().String(), cred, roots, rpc.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(context.Background(), "f", nil); err == nil || !strings.Contains(err.Error(), "unauthorized") {
		t.Fatalf("unauthorized register: %v", err)
	}
}
