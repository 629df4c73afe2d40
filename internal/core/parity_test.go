package core_test

import (
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
