// Command replicad runs the central Replica Catalog server (Section 3.1):
// the Grid-wide mapping from logical file names to physical replica
// locations, with collections and attribute metadata, behind the
// authenticated Request Manager. GDMP deployments run exactly one of these
// per Grid, as the paper does with its single LDAP server.
//
// The catalog is LFN-sharded internally (-shards, rounded up to a power of
// two) so concurrent lookups and mutations spread over per-shard locks.
//
// Usage:
//
//	replicad -listen :39000 -cred certs/replicad.pem -ca certs/ca.pem \
//	         [-state-dir /var/lib/replicad] [-shards 64] \
//	         [-gridmap gridmap]
//
// With -state-dir, the catalog is journaled: every mutation is appended to
// a write-ahead log before it applies, and compaction freezes the catalog
// into the journal's snapshot once the log has grown enough and on
// shutdown. Without it the catalog lives in memory only. Without
// -gridmap, every authenticated identity may use the catalog.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"gdmp/internal/gsi"
	"gdmp/internal/replica"
)

// settings is what the command line decides: the hosted catalog's
// configuration, bound to its flags directly, plus the files to load the
// credentials and the ACL from.
type settings struct {
	host                      replica.HostConfig
	credPath, caPath, gridmap string
}

func registerFlags(fs *flag.FlagSet, s *settings) {
	fs.StringVar(&s.host.Listen, "listen", ":39000", "address to listen on")
	fs.StringVar(&s.credPath, "cred", "", "server credential file (required)")
	fs.StringVar(&s.caPath, "ca", "", "trust anchor certificate (required)")
	fs.StringVar(&s.host.StateDir, "state-dir", "", "journaled store directory (crash-safe persistence; empty = memory only)")
	fs.IntVar(&s.host.Shards, "shards", replica.DefaultShards, "catalog shard count (rounded up to a power of two)")
	fs.StringVar(&s.gridmap, "gridmap", "", "authorization gridmap file (default: allow all)")
}

func main() {
	var s settings
	registerFlags(flag.CommandLine, &s)
	flag.Parse()
	if err := run(s); err != nil {
		fmt.Fprintln(os.Stderr, "replicad:", err)
		os.Exit(1)
	}
}

func run(s settings) error {
	if s.credPath == "" || s.caPath == "" {
		return fmt.Errorf("-cred and -ca are required")
	}
	cred, err := gsi.LoadCredential(s.credPath)
	if err != nil {
		return err
	}
	root, err := gsi.LoadCertificate(s.caPath)
	if err != nil {
		return err
	}
	acl := gsi.NewACL()
	replica.AllowCatalogUseAll(acl)
	if s.gridmap != "" {
		if acl, err = gsi.LoadGridmapFile(s.gridmap); err != nil {
			return err
		}
	}
	s.host.Cred, s.host.TrustRoots, s.host.ACL = cred, []*gsi.Certificate{root}, acl
	s.host.Logger = log.Default()

	host, err := replica.StartHost(s.host)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case sg := <-sig:
		log.Printf("received %v, shutting down", sg)
	case <-host.Done():
	}
	return host.Close()
}
