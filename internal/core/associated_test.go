package core_test

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"gdmp/internal/core"
	"gdmp/internal/objectstore"
	"gdmp/internal/replica"
	"gdmp/internal/testbed"
)

// buildChainedDBs creates object databases db1 -> db2 -> db3 (cross-file
// associations) plus an unrelated db4 at the producer, attaches them, and
// publishes them as objectivity files. Returns the LFNs by database id.
func buildChainedDBs(t *testing.T, g *testbed.Grid, cern *core.Site) map[uint32]string {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(cern.DataDir(), "dbs"), 0o755); err != nil {
		t.Fatal(err)
	}
	mk := func(dbid, crossTo uint32) string {
		rel := fmt.Sprintf("dbs/db%d.odb", dbid)
		full := filepath.Join(cern.DataDir(), "dbs", fmt.Sprintf("db%d.odb", dbid))
		w, err := objectstore.Create(full, dbid)
		if err != nil {
			t.Fatal(err)
		}
		obj := &objectstore.Object{
			OID: objectstore.OID{Slot: 1}, Type: "raw", Event: uint64(dbid),
			Data: testbed.MakeData(500, int64(dbid)),
		}
		if crossTo != 0 {
			obj.Assocs = []objectstore.OID{{DB: crossTo, Slot: 1}}
		}
		if err := w.Add(obj); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	// Create the targets first so attach order does not matter.
	rels := map[uint32]string{
		3: mk(3, 0),
		2: mk(2, 3),
		1: mk(1, 2),
		4: mk(4, 0),
	}
	lfns := make(map[uint32]string)
	for dbid := uint32(1); dbid <= 4; dbid++ {
		full := filepath.Join(cern.DataDir(), "dbs", fmt.Sprintf("db%d.odb", dbid))
		if _, err := cern.Federation().Attach(full); err != nil {
			t.Fatal(err)
		}
		pf, err := cern.Publish(rels[dbid], core.PublishOptions{FileType: "objectivity"})
		if err != nil {
			t.Fatalf("publish db%d: %v", dbid, err)
		}
		lfns[dbid] = pf.LFN
	}
	return lfns
}

func TestPublishRecordsAssociationAttributes(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{WithFederation: true})
	lfns := buildChainedDBs(t, g, cern)

	attrsOf := func(lfn string) (attrs map[string]string) {
		t.Helper()
		if err := g.Catalog.ReadEntry(lfn, func(f *replica.LogicalFile) { attrs = maps.Clone(f.Attrs) }); err != nil {
			t.Fatal(err)
		}
		return attrs
	}
	attrs := attrsOf(lfns[1])
	if attrs[core.AttrDBID] != "1" {
		t.Fatalf("dbid attr = %q", attrs[core.AttrDBID])
	}
	if attrs[core.AttrAssocDBs] != "2" {
		t.Fatalf("assocdbs attr = %q", attrs[core.AttrAssocDBs])
	}
	// The standalone db has no assocdbs attribute.
	if v, ok := attrsOf(lfns[4])[core.AttrAssocDBs]; ok {
		t.Fatalf("db4 should have no assocdbs, got %q", v)
	}
}

// TestAssociatedClosureAblation is the Section 2.1 ablation: replicating
// only the requested file breaks navigation; replicating the associated
// closure preserves it.
func TestAssociatedClosureAblation(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{WithFederation: true})
	lfns := buildChainedDBs(t, g, cern)

	// Ablation arm 1: plain Get of db1 only.
	plain := addSite(t, g, "plain.org", testbed.SiteOptions{WithFederation: true})
	if err := plain.Get(lfns[1]); err != nil {
		t.Fatal(err)
	}
	_, err := plain.Federation().Navigate(objectstore.OID{DB: 1, Slot: 1}, 0)
	if !errors.Is(err, objectstore.ErrNotAttached) {
		t.Fatalf("navigation without closure: %v (want ErrNotAttached)", err)
	}

	// Ablation arm 2: GetWithAssociated pulls db1, db2, db3 (not db4).
	closure := addSite(t, g, "closure.org", testbed.SiteOptions{WithFederation: true})
	fetched, err := closure.GetWithAssociated(lfns[1])
	if err != nil {
		t.Fatalf("GetWithAssociated: %v", err)
	}
	if len(fetched) != 3 {
		t.Fatalf("fetched %v", fetched)
	}
	if closure.HasFile(lfns[4]) {
		t.Fatal("unrelated db4 was replicated")
	}
	// Navigation now crosses both hops.
	obj, err := closure.Federation().Navigate(objectstore.OID{DB: 1, Slot: 1}, 0)
	if err != nil {
		t.Fatalf("navigate hop 1: %v", err)
	}
	if obj.OID != (objectstore.OID{DB: 2, Slot: 1}) {
		t.Fatalf("hop 1 landed at %v", obj.OID)
	}
	obj, err = closure.Federation().Navigate(obj.OID, 0)
	if err != nil {
		t.Fatalf("navigate hop 2: %v", err)
	}
	if obj.OID != (objectstore.OID{DB: 3, Slot: 1}) {
		t.Fatalf("hop 2 landed at %v", obj.OID)
	}

	// Idempotent: a second closure fetch finds nothing new.
	fetched, err = closure.GetWithAssociated(lfns[1])
	if err != nil || len(fetched) != 0 {
		t.Fatalf("second closure fetch = %v, %v", fetched, err)
	}
}

func TestGetWithAssociatedMissingTarget(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{WithFederation: true})
	// db1 references db2 but db2 is never published.
	full := filepath.Join(cern.DataDir(), "solo.odb")
	w, err := objectstore.Create(full, 10)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(&objectstore.Object{
		OID: objectstore.OID{Slot: 1}, Type: "raw",
		Assocs: []objectstore.OID{{DB: 20, Slot: 1}},
		Data:   []byte("x"),
	})
	w.Close()
	cern.Federation().Attach(full)
	pf, err := cern.Publish("solo.odb", core.PublishOptions{FileType: "objectivity"})
	if err != nil {
		t.Fatal(err)
	}
	dest := addSite(t, g, "dest.org", testbed.SiteOptions{WithFederation: true})
	fetched, err := dest.GetWithAssociated(pf.LFN)
	if err == nil {
		t.Fatal("closure over unpublished database should fail")
	}
	// The primary file itself did arrive before the failure.
	if len(fetched) != 1 {
		t.Fatalf("fetched = %v", fetched)
	}
}

func TestGetCollection(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	var lfns []string
	for i := 0; i < 4; i++ {
		pf := publish(t, g, cern, fmt.Sprintf("set/f%d.db", i),
			testbed.MakeData(20_000+i, int64(40+i)),
			core.PublishOptions{Collection: "dataset-A"})
		lfns = append(lfns, pf.LFN)
	}
	// One unrelated file outside the collection.
	publish(t, g, cern, "other.db", testbed.MakeData(100, 50), core.PublishOptions{})

	dest := addSite(t, g, "dest.org", testbed.SiteOptions{})
	fetched, err := dest.GetCollection("dataset-A")
	if err != nil {
		t.Fatalf("GetCollection: %v", err)
	}
	if len(fetched) != 4 {
		t.Fatalf("fetched %d files", len(fetched))
	}
	for _, lfn := range lfns {
		if !dest.HasFile(lfn) {
			t.Fatalf("%s missing", lfn)
		}
	}
	if dest.HasFile("lfn://cern.ch/other.db") {
		t.Fatal("file outside the collection was fetched")
	}
	// Re-fetch is a no-op; unknown collection errors.
	if again, err := dest.GetCollection("dataset-A"); err != nil || len(again) != 0 {
		t.Fatalf("refetch = %v, %v", again, err)
	}
	if _, err := dest.GetCollection("no-such-collection"); err == nil {
		t.Fatal("unknown collection accepted")
	}
}
