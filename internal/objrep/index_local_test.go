package objrep_test

import (
	"bytes"
	"testing"

	"gdmp/internal/objectstore"
	"gdmp/internal/objrep"
	testbedpkg "gdmp/internal/testbed"
)

func TestIndexLocalOIDs(t *testing.T) {
	ix := objrep.NewIndex()
	orig := objectstore.OID{DB: 1, Slot: 7}
	renum := objectstore.OID{DB: 0x80000001, Slot: 3}

	// The producing site holds the object under its original identifier.
	ix.AddAt(orig, "cern.ch", orig)
	// A destination holds it under a renumbered identifier (extraction).
	ix.AddAt(orig, "anl.gov", renum)

	if local, ok := ix.LocalOID(orig, "cern.ch"); !ok || local != orig {
		t.Fatalf("cern local = %v, %v", local, ok)
	}
	if local, ok := ix.LocalOID(orig, "anl.gov"); !ok || local != renum {
		t.Fatalf("anl local = %v, %v", local, ok)
	}
	if _, ok := ix.LocalOID(orig, "nowhere"); ok {
		t.Fatal("unknown site resolved")
	}
	if sites := ix.Sites(orig); len(sites) != 2 {
		t.Fatalf("Sites = %v", sites)
	}
}

func TestIndexLocalOIDsSurviveSaveLoad(t *testing.T) {
	ix := objrep.NewIndex()
	orig := objectstore.OID{DB: 2, Slot: 9}
	renum := objectstore.OID{DB: 0x90000000, Slot: 1}
	ix.AddAt(orig, "cern.ch", orig)
	ix.AddAt(orig, "anl.gov", renum)

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The text format carries the per-site local identifiers.
	if want := "2:9 anl.gov=2415919104:1 cern.ch=2:9"; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("serialized form missing %q:\n%s", want, buf.String())
	}
	restored, err := objrep.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if local, ok := restored.LocalOID(orig, "anl.gov"); !ok || local != renum {
		t.Fatalf("restored local = %v, %v", local, ok)
	}
	// Legacy bare-site lines (no "=local") still load, local == orig.
	legacy, err := objrep.LoadIndex(bytes.NewReader([]byte("gdmp-object-index v1\n5:5 siteX\n")))
	if err != nil {
		t.Fatal(err)
	}
	if local, ok := legacy.LocalOID(objectstore.OID{DB: 5, Slot: 5}, "siteX"); !ok ||
		local != (objectstore.OID{DB: 5, Slot: 5}) {
		t.Fatalf("legacy local = %v, %v", local, ok)
	}
}

// TestSecondHopUsesLocalOIDs replays the first-class-citizen scenario and
// verifies the index keeps working across hops: after cern -> anl, a
// request served by anl must be addressed with anl's renumbered OIDs, which
// the Replicator resolves automatically via the index.
func TestSecondHopUsesLocalOIDs(t *testing.T) {
	g, ds := objGrid(t)
	cern := g.Site("cern.ch")
	anl := g.Site("anl.gov")
	far, err := g.AddSite("desy.de", testbedpkg.SiteOptions{WithFederation: true})
	if err != nil {
		t.Fatal(err)
	}

	ix := objrep.NewIndex()
	var oids []objectstore.OID
	cern.Federation().Scan(func(m objectstore.Meta) bool {
		if m.Type == "esd" && len(oids) < 6 {
			ix.AddAt(m.OID, "cern.ch", m.OID)
			oids = append(oids, m.OID)
		}
		return true
	})
	_ = ds

	// Hop 1: cern -> anl.
	r1 := &objrep.Replicator{Dest: anl, SourceCtl: cern.Addr(), SourceName: "cern.ch", Index: ix}
	if _, err := r1.Replicate(oids); err != nil {
		t.Fatal(err)
	}
	if err := objrep.EnableService(anl); err != nil {
		t.Fatal(err)
	}
	// Drop cern from the index: anl is now the only source, under
	// renumbered identifiers the index remembers.
	for _, oid := range oids {
		ix.Remove(oid, "cern.ch")
	}

	// Hop 2: anl -> desy, requested with the ORIGINAL identifiers.
	r2 := &objrep.Replicator{Dest: far, SourceCtl: anl.Addr(), SourceName: "anl.gov", Index: ix}
	stats, err := r2.Replicate(oids)
	if err != nil {
		t.Fatalf("second hop: %v", err)
	}
	if stats.Objects != 6 {
		t.Fatalf("stats = %+v", stats)
	}
	count := 0
	far.Federation().Scan(func(m objectstore.Meta) bool { count++; return true })
	if count != 6 {
		t.Fatalf("far site holds %d objects", count)
	}
	// And the index knows desy's local identifiers for future hops.
	for _, oid := range oids {
		if _, ok := ix.LocalOID(oid, "desy.de"); !ok {
			t.Fatalf("index missing desy local OID for %v", oid)
		}
	}
}
