package core_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
	"gdmp/internal/testbed"
)

// TestNoSidecarForRottedBytes: bytes that rot after landing get no sidecar
// when it is regenerated — nothing staged, nothing renamed, nothing
// counted — where they used to get one that enshrined the rot until the
// next scrub pass threw it away. The same step on healthy bytes writes the
// sidecar and counts it.
func TestNoSidecarForRottedBytes(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Durable: true, ParityK: parity.DefaultK, ParityM: parity.DefaultM, Metrics: reg})
	sidecars := func() int64 { return reg.Counter("gdmp_parity_sidecars_total", "").Value() }
	data := testbed.MakeData(100_000, 7)
	pf := publish(t, g, cern, "rot.db", data, core.PublishOptions{})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	replica := filepath.Join(anl.DataDir(), "rot.db")
	sidecar := parity.SidecarPath(replica)
	if _, err := os.Stat(sidecar); err != nil || sidecars() != 1 {
		t.Fatalf("landing left no sidecar: %v", err)
	}

	if _, err := faults.FlipBlocks(replica, 1, 4096, 1); err != nil {
		t.Fatal(err)
	}
	if anl.RewriteSidecar(pf.LFN) {
		t.Fatal("rotted bytes have a sidecar")
	}
	for _, p := range []string{sidecar, sidecar + ".part"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s exists after a refused encode (%v)", p, err)
		}
	}
	if sidecars() != 1 {
		t.Fatalf("refused encode was counted (gdmp_parity_sidecars_total %d)", sidecars())
	}

	if err := os.WriteFile(replica, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if !anl.RewriteSidecar(pf.LFN) || sidecars() != 2 {
		t.Fatal("healthy bytes were refused a sidecar")
	}
	if _, _, err := parity.Load(sidecar); err != nil {
		t.Fatal(err)
	}
}

// TestFailedLandingLeavesNoSidecar: a leg whose landing fails after its
// check wrote the sidecar — here the rename, onto a non-empty directory
// that sits at the replica's path — takes that sidecar along. Left behind
// it would stay unpooled until scrub's orphan sweep, which skips a path
// something else occupies.
func TestFailedLandingLeavesNoSidecar(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{ParityK: parity.DefaultK, ParityM: parity.DefaultM})
	pf := publish(t, g, cern, "runs/blocked.db", testbed.MakeData(100_000, 8), core.PublishOptions{})
	occupied := filepath.Join(anl.DataDir(), "runs", "blocked.db")
	if err := os.MkdirAll(occupied, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(occupied, "resident"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := anl.Get(pf.LFN); err == nil {
		t.Fatal("a replica landed over a non-empty directory")
	}
	if anl.HasFile(pf.LFN) {
		t.Fatal("failed landing is in the local catalog")
	}
	sidecar := parity.SidecarPath(occupied)
	for _, p := range []string{sidecar, sidecar + ".part"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("failed landing left %s (%v)", p, err)
		}
	}
}

// TestOrphanSweepSparesLanding: scrub's orphan sweep removes a sidecar next
// to no data file, but not one whose data file is still staged — a pull's
// landing check writes the sidecar before renaming the bytes into place,
// and the sweep can run beside a repair pull that its own pass queued.
func TestOrphanSweepSparesLanding(t *testing.T) {
	g := newGrid(t)
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{ParityK: parity.DefaultK, ParityM: parity.DefaultM})
	landing := filepath.Join(anl.DataDir(), "landing.db")
	orphan := filepath.Join(anl.DataDir(), "orphan.db")
	for _, p := range []string{landing + ".part", parity.SidecarPath(landing), parity.SidecarPath(orphan)} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := anl.ScrubPass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(parity.SidecarPath(landing)); err != nil {
		t.Fatalf("the sweep took a landing's sidecar: %v", err)
	}
	if _, err := os.Stat(parity.SidecarPath(orphan)); !os.IsNotExist(err) {
		t.Fatalf("the sweep left an orphaned sidecar (%v)", err)
	}
}
