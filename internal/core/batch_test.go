package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/parity"
	"gdmp/internal/testbed"
)

func TestPublishAllBatchesNotification(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	if err := anl.SubscribeTo(cern.Addr()); err != nil {
		t.Fatal(err)
	}
	var rels []string
	for i := 0; i < 5; i++ {
		rel := fmt.Sprintf("batch/f%d.db", i)
		if _, err := g.WriteSiteFile("cern.ch", rel, testbed.MakeData(5_000+i, int64(60+i))); err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	published, err := cern.PublishAll(rels, core.PublishOptions{Collection: "batch-coll"})
	if err != nil {
		t.Fatalf("PublishAll: %v", err)
	}
	if len(published) != 5 {
		t.Fatalf("published %d files", len(published))
	}
	// The consumer received all five in pending (single notification).
	waitFor(t, func() bool { return len(anl.Pending()) == 5 }, "batched notification")
	n, err := anl.ProcessPending()
	if err != nil || n != 5 {
		t.Fatalf("ProcessPending = %d, %v", n, err)
	}
	members, _ := g.Catalog.ListCollection("batch-coll")
	if len(members) != 5 {
		t.Fatalf("collection members = %v", members)
	}
}

func TestPublishAllRejectsExplicitLFN(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	if _, err := cern.PublishAll([]string{"x"}, core.PublishOptions{LFN: "lfn://explicit"}); err == nil {
		t.Fatal("explicit LFN accepted in batch publish")
	}
}

func TestPublishAllPartialFailure(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	if err := anl.SubscribeTo(cern.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteSiteFile("cern.ch", "ok.db", testbed.MakeData(100, 70)); err != nil {
		t.Fatal(err)
	}
	published, err := cern.PublishAll([]string{"ok.db", "missing.db"}, core.PublishOptions{})
	if err == nil {
		t.Fatal("missing file accepted")
	}
	if len(published) != 1 {
		t.Fatalf("published = %v", published)
	}
	// The successfully registered file was still announced.
	waitFor(t, func() bool { return len(anl.Pending()) == 1 }, "partial batch notification")
}

func TestRebuildLocalCatalogAfterRestart(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	var lfns []string
	for i := 0; i < 3; i++ {
		pf := publish(t, g, cern, fmt.Sprintf("persist/f%d.db", i),
			testbed.MakeData(10_000, int64(80+i)), core.PublishOptions{})
		lfns = append(lfns, pf.LFN)
	}
	dataDir := cern.DataDir()

	// "Crash" the site and bring up a fresh instance over the same pool
	// with the same identity.
	if err := cern.Close(); err != nil {
		t.Fatal(err)
	}
	delete(g.Sites, "cern.ch")
	cred, err := g.CA.Issue("gdmp/cern.ch", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := core.NewSite(core.Config{
		Name:           "cern.ch",
		DataDir:        dataDir,
		Cred:           cred,
		TrustRoots:     g.Roots,
		ACL:            g.ACL,
		ReplicaCatalog: g.CatalogAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()

	if len(reborn.LocalFiles()) != 0 {
		t.Fatal("fresh site should start with an empty local catalog")
	}
	restored, err := reborn.RebuildLocalCatalog()
	if err != nil {
		t.Fatalf("RebuildLocalCatalog: %v", err)
	}
	if restored != 3 {
		t.Fatalf("restored %d entries", restored)
	}
	for _, lfn := range lfns {
		if !reborn.HasFile(lfn) {
			t.Fatalf("%s not re-adopted", lfn)
		}
	}
	// Idempotent.
	if again, err := reborn.RebuildLocalCatalog(); err != nil || again != 0 {
		t.Fatalf("second rebuild = %d, %v", again, err)
	}
	// A file whose bytes vanished is not re-adopted.
	if err := os.Remove(filepath.Join(dataDir, "persist", "f0.db")); err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewSite(core.Config{
		Name:           "cern.ch",
		DataDir:        dataDir,
		Cred:           cred,
		TrustRoots:     g.Roots,
		ACL:            g.ACL,
		ReplicaCatalog: g.CatalogAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	restored, err = fresh.RebuildLocalCatalog()
	if err != nil || restored != 2 {
		t.Fatalf("rebuild after loss = %d, %v", restored, err)
	}
}

// TestRebuildLocalCatalogLandsLikeAPublish: a restored entry enters the
// site through land, like a publish. A disk-resident original is back in
// the pool, pinned against eviction, with a journaled parity sidecar; a
// tape-resident one is at tape residency, outside the pool, without one.
func TestRebuildLocalCatalogLandsLikeAPublish(t *testing.T) {
	g := newGrid(t)
	const capacity = 1 << 20
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{
		WithMSS: true, MSSCapacity: capacity, ParityK: parity.DefaultK, ParityM: parity.DefaultM,
	})
	disk := publish(t, g, cern, "run/disk.db", testbed.MakeData(100_000, 1), core.PublishOptions{})
	tape := publish(t, g, cern, "run/tape.db", testbed.MakeData(100_000, 2), core.PublishOptions{})
	if err := cern.ArchiveLocal(tape.LFN); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(cern.DataDir(), "run", "tape.db")); err != nil {
		t.Fatal(err)
	}

	// Without a state directory the reborn site, and its pool, start empty.
	reborn, err := g.RestartSite("cern.ch")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := reborn.RebuildLocalCatalog(); err != nil || n != 2 {
		t.Fatalf("RebuildLocalCatalog = %d, %v; want 2", n, err)
	}
	pool := reborn.Pool()
	if !pool.OnDisk(disk.PFN.Path) || !reborn.SidecarJournaled(disk.LFN) {
		t.Fatalf("restored disk file: in pool %v, sidecar journaled %v; want both",
			pool.OnDisk(disk.PFN.Path), reborn.SidecarJournaled(disk.LFN))
	}
	// Pinned: a reservation that needs one byte more than is free finds
	// nothing it may evict.
	if release, err := pool.Reserve(pool.Free() + 1); err == nil {
		release()
		t.Error("a reservation evicted the restored original")
	}
	if !pool.OnDisk(disk.PFN.Path) || !reborn.HasFile(disk.LFN) {
		t.Fatal("the restored original left the pool")
	}

	var state core.FileState
	for _, fi := range reborn.LocalFiles() {
		if fi.LFN == tape.LFN {
			state = fi.State
		}
	}
	if state != core.StateTape || pool.OnDisk(tape.PFN.Path) || reborn.SidecarJournaled(tape.LFN) {
		t.Fatalf("restored tape file: state %q, in pool %v, sidecar journaled %v; want tape, false, false",
			state, pool.OnDisk(tape.PFN.Path), reborn.SidecarJournaled(tape.LFN))
	}
}
