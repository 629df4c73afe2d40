package objrep_test

import (
	"path/filepath"
	"strings"
	"testing"

	"gdmp/internal/objectstore"
	"gdmp/internal/objrep"
	"gdmp/internal/testbed"
	"gdmp/internal/workload"
)

// multiSourceGrid builds two producer sites, each holding half of a
// dataset, a destination site, and a global index describing who has what.
func multiSourceGrid(t *testing.T) (*testbed.Grid, *objrep.Index, []objectstore.OID, objrep.SourceSet) {
	t.Helper()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	objrep.AllowServiceUseAll(g.ACL)

	ix := objrep.NewIndex()
	sources := objrep.SourceSet{}
	var all []objectstore.OID

	for i, name := range []string{"cern.ch", "fnal.gov"} {
		site, err := g.AddSite(name, testbed.SiteOptions{WithFederation: true})
		if err != nil {
			t.Fatal(err)
		}
		// Each producer generates a disjoint set of databases; distinct
		// seeds and offset db numbering keep the OIDs disjoint.
		ds, err := workload.Generate(workload.Config{
			Events:         20,
			Types:          []workload.ObjectSpec{{Type: "esd", Size: 400}},
			ObjectsPerFile: 10,
			Placement:      workload.ByType,
			Dir:            filepath.Join(site.DataDir(), "dataset"),
			Seed:           int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, fm := range ds.Files {
			if _, err := site.Federation().Attach(fm.Path); err != nil {
				t.Fatal(err)
			}
		}
		if err := objrep.EnableService(site); err != nil {
			t.Fatal(err)
		}
		sources[name] = site.Addr()
		// Only the first producer's dataset enters the request set; the
		// second producer starts empty in the index and becomes an
		// alternate source once objects are replicated to it (the index
		// tracks its renumbered local identifiers).
		if i == 0 {
			site.Federation().Scan(func(m objectstore.Meta) bool {
				ix.AddAt(m.OID, name, m.OID)
				all = append(all, m.OID)
				return true
			})
		}
	}
	if _, err := g.AddSite("dest.org", testbed.SiteOptions{WithFederation: true}); err != nil {
		t.Fatal(err)
	}
	return g, ix, all, sources
}

func TestReplicateFromSites(t *testing.T) {
	g, ix, all, sources := multiSourceGrid(t)
	dest := g.Site("dest.org")
	fnal := g.Site("fnal.gov")

	// Stage 1: move the first half of cern's objects to fnal so the index
	// lists two holders for them.
	half := all[:len(all)/2]
	r := &objrep.Replicator{
		Dest: fnal, SourceCtl: sources["cern.ch"], SourceName: "cern.ch",
		Index: ix,
	}
	if _, err := r.Replicate(half); err != nil {
		t.Fatalf("stage 1: %v", err)
	}
	for _, oid := range half {
		if !has(ix, oid, "fnal.gov") {
			t.Fatalf("index missing %v at fnal", oid)
		}
	}

	// Make fnal the only holder of the first half, so the collective
	// lookup must split the request across both sources — and must use
	// fnal's renumbered local identifiers for its share.
	for _, oid := range half {
		ix.Remove(oid, "cern.ch")
	}

	// Stage 2: the destination requests everything.
	stats, err := objrep.ReplicateFromSites(dest, sources, ix, all, 0, true)
	if err != nil {
		t.Fatalf("ReplicateFromSites: %v", err)
	}
	if stats.Objects != len(all) {
		t.Fatalf("stats = %+v", stats)
	}
	count := 0
	dest.Federation().Scan(func(m objectstore.Meta) bool { count++; return true })
	if count != len(all) {
		t.Fatalf("destination holds %d objects, want %d", count, len(all))
	}
	// Everything is now indexed at the destination too.
	if missing := ix.Missing(all, "dest.org"); len(missing) != 0 {
		t.Fatalf("index missing %d entries at destination", len(missing))
	}
	// Re-running is a no-op.
	stats, err = objrep.ReplicateFromSites(dest, sources, ix, all, 0, false)
	if err != nil || stats.Objects != 0 {
		t.Fatalf("re-run = %+v, %v", stats, err)
	}
}

func TestReplicateFromSitesErrors(t *testing.T) {
	g, ix, all, sources := multiSourceGrid(t)
	dest := g.Site("dest.org")

	// No index.
	if _, err := objrep.ReplicateFromSites(dest, sources, nil, all, 0, false); err == nil {
		t.Fatal("nil index accepted")
	}
	// Unknown location.
	orphan := []objectstore.OID{{DB: 999, Slot: 999}}
	if _, err := objrep.ReplicateFromSites(dest, sources, ix, orphan, 0, false); err == nil ||
		!strings.Contains(err.Error(), "no known location") {
		t.Fatalf("orphan objects: %v", err)
	}
	// Missing control address.
	bad := objrep.SourceSet{}
	if _, err := objrep.ReplicateFromSites(dest, bad, ix, all[:1], 0, false); err == nil ||
		!strings.Contains(err.Error(), "no control address") {
		t.Fatalf("missing source: %v", err)
	}
}
