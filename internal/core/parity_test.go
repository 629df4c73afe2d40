package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/parity"
	"gdmp/internal/testbed"
)

// TestNoSidecarForRottedBytes: bytes that rot between landing and the
// sidecar step get no sidecar — nothing staged, nothing renamed, nothing
// registered, journaled or counted — where they used to get one that
// enshrined the rot until the next scrub pass threw it away. The same step
// on healthy bytes writes all four.
func TestNoSidecarForRottedBytes(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Durable: true, ParityK: parity.DefaultK, ParityM: parity.DefaultM})
	data := testbed.MakeData(100_000, 7)
	pf := publish(t, g, cern, "rot.db", data, core.PublishOptions{})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	replica := filepath.Join(anl.DataDir(), "rot.db")
	sidecar := parity.SidecarPath(replica)
	if _, err := os.Stat(sidecar); err != nil || !anl.SidecarJournaled(pf.LFN) || anl.Status().ParitySidecars != 1 {
		t.Fatalf("landing left no journaled sidecar: %v", err)
	}

	if _, err := faults.FlipBlocks(replica, 1, 4096, 1); err != nil {
		t.Fatal(err)
	}
	if anl.RewriteSidecar(pf.LFN) {
		t.Fatal("rotted bytes have a registered sidecar")
	}
	for _, p := range []string{sidecar, sidecar + ".part"} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s exists after a refused encode (%v)", p, err)
		}
	}
	if anl.SidecarJournaled(pf.LFN) || anl.Status().ParitySidecars != 1 {
		t.Fatalf("refused encode was journaled or counted (gdmp_parity_sidecars_total %d)", anl.Status().ParitySidecars)
	}

	if err := os.WriteFile(replica, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if !anl.RewriteSidecar(pf.LFN) || !anl.SidecarJournaled(pf.LFN) || anl.Status().ParitySidecars != 2 {
		t.Fatal("healthy bytes were refused a sidecar")
	}
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatal(err)
	}
}
