package objrep_test

import (
	"path/filepath"
	"testing"

	"gdmp/internal/objectstore"
	"gdmp/internal/objrep"
	"gdmp/internal/workload"
)

// reclusterFixture generates an event-clustered dataset and attaches it.
func reclusterFixture(t *testing.T) *objectstore.Federation {
	t.Helper()
	ds, err := workload.Generate(workload.Config{
		Events:         40,
		Types:          []workload.ObjectSpec{{Type: "tag", Size: 20}, {Type: "esd", Size: 200}},
		ObjectsPerFile: 16,
		Placement:      workload.ByEvent, // worst case for type-wise scans
		Dir:            t.TempDir(),
		Seed:           1,
		LinkTypes:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fed := objectstore.NewFederation()
	t.Cleanup(func() { fed.Close() })
	for _, fm := range ds.Files {
		if _, err := fed.Attach(fm.Path); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

func TestReclusterByTypePreservesContent(t *testing.T) {
	fed := reclusterFixture(t)
	out := t.TempDir()
	res, err := objrep.Recluster(fed, out, objrep.ClusterByType, 20, 1000)
	if err != nil {
		t.Fatalf("Recluster: %v", err)
	}
	if res.Objects != 80 { // 40 events x 2 types
		t.Fatalf("objects = %d", res.Objects)
	}
	if len(res.Files) != 4 { // 80 objects / 20 per file
		t.Fatalf("files = %v", res.Files)
	}
	if res.Bytes != 40*20+40*200 {
		t.Fatalf("bytes = %d", res.Bytes)
	}

	// Attach the new layout and verify every object survived, content and
	// associations included.
	newFed := objectstore.NewFederation()
	defer newFed.Close()
	for _, p := range res.Files {
		if _, err := newFed.Attach(p); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	err = fed.Scan(func(m objectstore.Meta) bool {
		orig, err := fed.Lookup(m.OID)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := newFed.Lookup(res.Mapping[m.OID])
		if err != nil {
			t.Fatalf("lookup %v -> %v: %v", m.OID, res.Mapping[m.OID], err)
		}
		if moved.Type != orig.Type || moved.Event != orig.Event ||
			len(moved.Data) != len(orig.Data) {
			t.Fatalf("object %v mutated by reclustering", m.OID)
		}
		checked++
		return true
	})
	if err != nil || checked != 80 {
		t.Fatalf("checked %d objects, %v", checked, err)
	}

	// Associations were rewritten: a tag navigates to its esd in the new
	// layout.
	var tagOID objectstore.OID
	newFed.Scan(func(m objectstore.Meta) bool {
		if m.Type == "tag" && len(m.Assocs) == 1 {
			tagOID = m.OID
			return false
		}
		return true
	})
	if tagOID == (objectstore.OID{}) {
		t.Fatal("no tag with association found after reclustering")
	}
	target, err := newFed.Navigate(tagOID, 0)
	if err != nil {
		t.Fatalf("navigation after reclustering: %v", err)
	}
	if target.Type != "esd" {
		t.Fatalf("navigated to %q", target.Type)
	}
}

// TestReclusterImprovesTypeLocality is the point of the exercise: a
// type-wise sparse selection touches far fewer files after reclustering.
func TestReclusterImprovesTypeLocality(t *testing.T) {
	fed := reclusterFixture(t)
	out := t.TempDir()
	res, err := objrep.Recluster(fed, out, objrep.ClusterByType, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}

	// Count the files holding "esd" objects before and after.
	filesHolding := func(f *objectstore.Federation) int {
		dbs := make(map[uint32]bool)
		f.Scan(func(m objectstore.Meta) bool {
			if m.Type == "esd" {
				dbs[m.OID.DB] = true
			}
			return true
		})
		return len(dbs)
	}
	before := filesHolding(fed)
	newFed := objectstore.NewFederation()
	defer newFed.Close()
	for _, p := range res.Files {
		newFed.Attach(p)
	}
	after := filesHolding(newFed)
	if after >= before {
		t.Fatalf("type locality did not improve: %d files before, %d after", before, after)
	}
}

func TestReclusterByEvent(t *testing.T) {
	fed := reclusterFixture(t)
	res, err := objrep.Recluster(fed, t.TempDir(), objrep.ClusterByEvent, 10, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// In event order, each event's two objects are adjacent: slots pair up.
	db, err := objectstore.Open(res.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	metas := db.Metas()
	for i := 0; i+1 < len(metas); i += 2 {
		if metas[i].Event != metas[i+1].Event {
			t.Fatalf("event clustering broken at slot %d: %d vs %d",
				i, metas[i].Event, metas[i+1].Event)
		}
	}
}

func TestReclusterValidation(t *testing.T) {
	fed := objectstore.NewFederation()
	defer fed.Close()
	if _, err := objrep.Recluster(fed, t.TempDir(), objrep.ClusterByType, 0, 1); err == nil {
		t.Error("zero objectsPerFile accepted")
	}
	if _, err := objrep.Recluster(fed, t.TempDir(), objrep.ClusterByType, 10, 0); err == nil {
		t.Error("zero firstDBID accepted")
	}
	if _, err := objrep.Recluster(fed, t.TempDir(), objrep.ClusterByType, 10, 1); err == nil {
		t.Error("empty federation accepted")
	}
	full := reclusterFixture(t)
	if _, err := objrep.Recluster(full, filepath.Join(t.TempDir(), "x"), objrep.ClusterPolicy(99), 10, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}
