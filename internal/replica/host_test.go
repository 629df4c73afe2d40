package replica

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"gdmp/internal/gsi"
)

func startTestHost(t *testing.T, stateDir string) (*Host, *Client) {
	t.Helper()
	ca := testCA(t)
	roots := []*gsi.Certificate{ca.Certificate()}
	cred, err := ca.Issue("replicad/central", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	acl := gsi.NewACL()
	AllowCatalogUseAll(acl)
	h, err := StartHost(HostConfig{
		Listen: "127.0.0.1:0", StateDir: stateDir, Shards: 4,
		Cred: cred, TrustRoots: roots, ACL: acl,
	})
	if err != nil {
		t.Fatalf("StartHost: %v", err)
	}
	return h, dialTestClient(t, h.Addr().String())
}

// TestHostPersistsAcrossRestart: what a client registered through one
// Host is served by the next Host on the same state directory, and the
// final compaction left it nothing to replay.
func TestHostPersistsAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "rc") // StartHost creates it
	h, cl := startTestHost(t, dir)
	if err := cl.Register(ctx, "lfn://cern.ch/a", map[string]string{AttrSize: "7"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddReplica(ctx, "lfn://cern.ch/a", "gridftp://cern:2811/a"); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-h.Done():
	default:
		t.Fatal("Done still open after Close")
	}

	h2, cl2 := startTestHost(t, dir)
	defer h2.Close()
	if n := h2.store.Records(); n != 0 {
		t.Fatalf("restart replayed %d WAL records after a clean Close", n)
	}
	locs, err := cl2.Locations(ctx, "lfn://cern.ch/a")
	if err != nil || len(locs) != 1 || locs[0] != "gridftp://cern:2811/a" {
		t.Fatalf("locations after restart = %v, %v", locs, err)
	}
}

// TestHostMemoryOnly: without a state directory the Host still serves and
// closes cleanly; it just has no store.
func TestHostMemoryOnly(t *testing.T) {
	h, cl := startTestHost(t, "")
	if err := cl.Register(context.Background(), "lfn://cern.ch/a", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
