package objrep_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdmp/internal/objectstore"
	"gdmp/internal/objrep"
	"gdmp/internal/testbed"
	"gdmp/internal/workload"
)

// objGrid builds a grid with a producer holding a generated dataset and a
// consumer with an empty federation.
// has reports whether ix resolves oid at site.
func has(ix *objrep.Index, oid objectstore.OID, site string) bool {
	_, ok := ix.LocalOID(oid, site)
	return ok
}

func objGrid(t *testing.T) (*testbed.Grid, *workload.Dataset) {
	t.Helper()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	objrep.AllowServiceUseAll(g.ACL)

	src, err := g.AddSite("cern.ch", testbed.SiteOptions{WithFederation: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddSite("anl.gov", testbed.SiteOptions{WithFederation: true}); err != nil {
		t.Fatal(err)
	}

	ds, err := workload.Generate(workload.Config{
		Events:         60,
		Types:          []workload.ObjectSpec{{Type: "tag", Size: 50}, {Type: "esd", Size: 800}},
		ObjectsPerFile: 30,
		Placement:      workload.ByType,
		Dir:            filepath.Join(src.DataDir(), "dataset"),
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fm := range ds.Files {
		if _, err := src.Federation().Attach(fm.Path); err != nil {
			t.Fatal(err)
		}
	}
	if err := objrep.EnableService(src); err != nil {
		t.Fatal(err)
	}
	return g, ds
}

func TestCopyObjects(t *testing.T) {
	g, ds := objGrid(t)
	src := g.Site("cern.ch")
	sel := workload.SelectEvents(60, 10, 2)
	oids := ds.ObjectsFor(sel, "esd")

	out := filepath.Join(t.TempDir(), "extract.odb")
	stats, mapping, err := objrep.CopyObjects(src.Federation(), oids, out, 0x80000001)
	if err != nil {
		t.Fatalf("CopyObjects: %v", err)
	}
	if stats.Objects != 10 || stats.Bytes != 10*800 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(mapping) != 10 {
		t.Fatalf("mapping = %v", mapping)
	}
	db, err := objectstore.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 10 || db.DBID() != 0x80000001 {
		t.Fatalf("db len=%d id=%d", db.Len(), db.DBID())
	}
	// Contents match the originals, located via the mapping.
	for _, orig := range oids {
		fresh := mapping[orig]
		want, err := src.Federation().Lookup(orig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Read(fresh.Slot)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) || got.Event != want.Event {
			t.Fatalf("object %v copied wrong", orig)
		}
	}
}

func TestCopyObjectsRewritesAssociations(t *testing.T) {
	dir := t.TempDir()
	// Two objects with an association between them, plus one pointing out.
	path := filepath.Join(dir, "src.odb")
	w, err := objectstore.Create(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(&objectstore.Object{OID: objectstore.OID{Slot: 1}, Type: "a", Data: []byte("one"),
		Assocs: []objectstore.OID{{DB: 5, Slot: 2}}})
	w.Add(&objectstore.Object{OID: objectstore.OID{Slot: 2}, Type: "a", Data: []byte("two"),
		Assocs: []objectstore.OID{{DB: 99, Slot: 1}}}) // leaves the set
	w.Close()
	fed := objectstore.NewFederation()
	defer fed.Close()
	fed.Attach(path)

	out := filepath.Join(dir, "out.odb")
	_, mapping, err := objrep.CopyObjects(fed,
		[]objectstore.OID{{DB: 5, Slot: 1}, {DB: 5, Slot: 2}}, out, 0x80000002)
	if err != nil {
		t.Fatal(err)
	}
	db, err := objectstore.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	first, err := db.Read(mapping[objectstore.OID{DB: 5, Slot: 1}].Slot)
	if err != nil {
		t.Fatal(err)
	}
	// The in-set association was rewritten to the new OID.
	if len(first.Assocs) != 1 || first.Assocs[0] != mapping[objectstore.OID{DB: 5, Slot: 2}] {
		t.Fatalf("assocs = %v", first.Assocs)
	}
	second, err := db.Read(mapping[objectstore.OID{DB: 5, Slot: 2}].Slot)
	if err != nil {
		t.Fatal(err)
	}
	// The out-of-set association was dropped (self-contained file).
	if len(second.Assocs) != 0 {
		t.Fatalf("out-of-set assoc kept: %v", second.Assocs)
	}
}

func TestCopyObjectsErrors(t *testing.T) {
	fed := objectstore.NewFederation()
	defer fed.Close()
	if _, _, err := objrep.CopyObjects(fed, nil, filepath.Join(t.TempDir(), "x.odb"), 1); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, _, err := objrep.CopyObjects(fed,
		[]objectstore.OID{{DB: 1, Slot: 1}}, filepath.Join(t.TempDir(), "x.odb"), 1); err == nil {
		t.Fatal("unattached database accepted")
	}
}

func TestReplicateEndToEnd(t *testing.T) {
	g, ds := objGrid(t)
	dest := g.Site("anl.gov")
	src := g.Site("cern.ch")

	sel := workload.SelectEvents(60, 12, 3)
	oids := ds.ObjectsFor(sel, "esd")
	ix := objrep.NewIndex()

	r := &objrep.Replicator{
		Dest:           dest,
		SourceCtl:      src.Addr(),
		SourceName:     "cern.ch",
		DeleteAtSource: true,
		Index:          ix,
	}
	stats, err := r.Replicate(oids)
	if err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	if stats.Objects != 12 || stats.Batches != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.BytesMoved < 12*800 {
		t.Fatalf("BytesMoved = %d", stats.BytesMoved)
	}
	// The destination's federation can read the replicated objects by
	// (event, type) through the newly attached extraction file.
	found := 0
	dest.Federation().Scan(func(m objectstore.Meta) bool {
		if m.Type == "esd" {
			found++
		}
		return true
	})
	if found != 12 {
		t.Fatalf("destination federation holds %d esd objects", found)
	}
	// The index records the new replicas.
	for _, oid := range oids {
		if !has(ix, oid, "anl.gov") {
			t.Fatalf("index missing %v at destination", oid)
		}
	}
	// The extraction file was deleted at the source (step 3): the source
	// keeps only its original dataset files in the local catalog.
	for _, fi := range src.LocalFiles() {
		if strings.Contains(fi.Path, "objrep/") {
			t.Fatalf("extraction file %s survived at source", fi.Path)
		}
	}
	// A second replication of the same set is a no-op thanks to the index.
	stats2, err := r.Replicate(oids)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Objects != 0 || stats2.BytesMoved != 0 {
		t.Fatalf("re-replication moved data: %+v", stats2)
	}
}

func TestReplicateBatchedAndPipelined(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		g, ds := objGrid(t)
		dest := g.Site("anl.gov")
		src := g.Site("cern.ch")
		sel := workload.SelectEvents(60, 20, 4)
		oids := ds.ObjectsFor(sel, "esd")

		r := &objrep.Replicator{
			Dest:       dest,
			SourceCtl:  src.Addr(),
			SourceName: "cern.ch",
			BatchSize:  5,
			Pipelined:  pipelined,
		}
		stats, err := r.Replicate(oids)
		if err != nil {
			t.Fatalf("pipelined=%v: %v", pipelined, err)
		}
		if stats.Batches != 4 {
			t.Fatalf("pipelined=%v batches = %d", pipelined, stats.Batches)
		}
		found := 0
		dest.Federation().Scan(func(m objectstore.Meta) bool {
			if m.Type == "esd" {
				found++
			}
			return true
		})
		if found != 20 {
			t.Fatalf("pipelined=%v destination holds %d objects", pipelined, found)
		}
	}
}

func TestIndexBasics(t *testing.T) {
	ix := objrep.NewIndex()
	a := objectstore.OID{DB: 1, Slot: 1}
	b := objectstore.OID{DB: 1, Slot: 2}
	ix.AddAt(a, "cern.ch", a)
	ix.AddAt(a, "anl.gov", a)
	ix.AddAt(b, "cern.ch", b)
	if !has(ix, a, "cern.ch") || has(ix, b, "anl.gov") {
		t.Fatal("Has wrong")
	}
	if got := ix.Sites(a); len(got) != 2 || got[0] != "anl.gov" {
		t.Fatalf("Sites = %v", got)
	}
	missing := ix.Missing([]objectstore.OID{a, b}, "anl.gov")
	if len(missing) != 1 || missing[0] != b {
		t.Fatalf("Missing = %v", missing)
	}
	groups := ix.CollectiveLookup([]objectstore.OID{a, b, {DB: 9, Slot: 9}})
	if len(groups["anl.gov"]) != 1 || len(groups["cern.ch"]) != 1 || len(groups[""]) != 1 {
		t.Fatalf("CollectiveLookup = %v", groups)
	}
	ix.Remove(a, "anl.gov")
	if has(ix, a, "anl.gov") {
		t.Fatal("Remove failed")
	}
	ix.Remove(a, "cern.ch")
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	ix := objrep.NewIndex()
	for i := uint32(1); i <= 50; i++ {
		ix.AddAt(objectstore.OID{DB: i % 3, Slot: i}, "cern.ch", objectstore.OID{DB: i % 3, Slot: i})
		if i%2 == 0 {
			ix.AddAt(objectstore.OID{DB: i % 3, Slot: i}, "anl.gov", objectstore.OID{DB: i % 3, Slot: i})
		}
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := objrep.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != ix.Len() {
		t.Fatalf("restored %d entries, want %d", restored.Len(), ix.Len())
	}
	if !has(restored, objectstore.OID{DB: 2, Slot: 2}, "anl.gov") {
		t.Fatal("entry lost in round trip")
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	restored.Save(&buf2)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("index save not deterministic")
	}
	// Corruption rejected.
	if _, err := objrep.LoadIndex(strings.NewReader("garbage")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := objrep.LoadIndex(strings.NewReader("gdmp-object-index v1\nnot-an-oid site\n")); err == nil {
		t.Fatal("bad oid accepted")
	}
	if _, err := objrep.LoadIndex(strings.NewReader("gdmp-object-index v1\n1:2\n")); err == nil {
		t.Fatal("oid without sites accepted")
	}
}

func TestIndexReplicatedAsFile(t *testing.T) {
	g, _ := objGrid(t)
	src := g.Site("cern.ch")
	dest := g.Site("anl.gov")

	ix := objrep.NewIndex()
	ix.AddAt(objectstore.OID{DB: 1, Slot: 7}, "cern.ch", objectstore.OID{DB: 1, Slot: 7})
	ix.AddAt(objectstore.OID{DB: 2, Slot: 9}, "cern.ch", objectstore.OID{DB: 2, Slot: 9})

	pf, err := ix.PublishTo(src, "index/objects.idx", "lfn://cern.ch/index/objects.idx")
	if err != nil {
		t.Fatalf("PublishTo: %v", err)
	}
	fetched, err := objrep.FetchFrom(dest, pf.LFN)
	if err != nil {
		t.Fatalf("FetchFrom: %v", err)
	}
	if fetched.Len() != 2 || !has(fetched, objectstore.OID{DB: 1, Slot: 7}, "cern.ch") {
		t.Fatalf("fetched index = %d entries", fetched.Len())
	}
}

func TestExtractedFilesAreFirstClass(t *testing.T) {
	// An extraction file at the destination can itself serve a further
	// object replication request (the paper's first-class-citizen claim).
	g, ds := objGrid(t)
	src := g.Site("cern.ch")
	mid := g.Site("anl.gov")

	// Third site that will fetch from the middle site's extraction.
	far, err := g.AddSite("fnal.gov", testbed.SiteOptions{WithFederation: true})
	if err != nil {
		t.Fatal(err)
	}

	sel := workload.SelectEvents(60, 8, 5)
	oids := ds.ObjectsFor(sel, "esd")
	r1 := &objrep.Replicator{Dest: mid, SourceCtl: src.Addr(), SourceName: "cern.ch"}
	if _, err := r1.Replicate(oids); err != nil {
		t.Fatal(err)
	}
	// Enable the service at the middle site and extract from it: the OIDs
	// there are the renumbered ones from its extraction file.
	if err := objrep.EnableService(mid); err != nil {
		t.Fatal(err)
	}
	var midOIDs []objectstore.OID
	mid.Federation().Scan(func(m objectstore.Meta) bool {
		midOIDs = append(midOIDs, m.OID)
		return true
	})
	if len(midOIDs) != 8 {
		t.Fatalf("middle site holds %d objects", len(midOIDs))
	}
	r2 := &objrep.Replicator{Dest: far, SourceCtl: mid.Addr(), SourceName: "anl.gov"}
	stats, err := r2.Replicate(midOIDs)
	if err != nil {
		t.Fatalf("second-hop replicate: %v", err)
	}
	if stats.Objects != 8 {
		t.Fatalf("second-hop stats = %+v", stats)
	}
	count := 0
	far.Federation().Scan(func(m objectstore.Meta) bool { count++; return true })
	if count != 8 {
		t.Fatalf("far site holds %d objects", count)
	}
}

func TestPipelineOverlapsStages(t *testing.T) {
	// With a slow WAN, the pipelined cycle should finish faster than the
	// sequential one, because extraction of batch i+1 overlaps transfer of
	// batch i.
	run := func(pipelined bool) time.Duration {
		g, ds := objGrid(t)
		dest := g.Site("anl.gov")
		src := g.Site("cern.ch")
		sel := workload.SelectEvents(60, 24, 6)
		oids := ds.ObjectsFor(sel, "esd")
		r := &objrep.Replicator{
			Dest: dest, SourceCtl: src.Addr(), SourceName: "cern.ch",
			BatchSize: 6, Pipelined: pipelined,
		}
		stats, err := r.Replicate(oids)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Elapsed
	}
	seq := run(false)
	pipe := run(true)
	// On loopback both are fast; just assert the pipelined run is not
	// dramatically slower (the real gain is measured in the bench under
	// WAN shaping).
	if pipe > seq*3 {
		t.Fatalf("pipelined %v much slower than sequential %v", pipe, seq)
	}
}
