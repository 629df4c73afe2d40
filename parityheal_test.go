// Erasure-coded local repair integration tests: parity sidecars written
// at publish/land time must let the scrubber rebuild block-level damage
// in place — zero WAN bytes — with quarantine plus re-pull surviving only
// as the fallback for damage beyond the parity budget, and the
// gdmp_parity_* / gdmp_repair_bytes_* series splitting the two repair
// modes exactly.
//
// Every test logs its seed; set PARITY_SEED to replay a run.
package gdmp_test

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"gdmp/internal/faults"
	"gdmp/internal/gridftp"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
	"gdmp/internal/testbed"
)

// paritySeed returns the run's corruption seed (overridable with
// PARITY_SEED) and logs it so a failure replays exactly.
func paritySeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("PARITY_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PARITY_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("parity seed: %d (set PARITY_SEED to replay)", seed)
	return seed
}

// parityBlockSize mirrors the sidecar geometry: data blocks are
// ceil(size/k) bytes, so block-aligned fault injection lands exactly on
// coded block boundaries and the damage budget is exact.
func parityBlockSize(size, k int) int64 {
	return (int64(size) + int64(k) - 1) / int64(k)
}

// sidecarFiles lists every parity sidecar under dir.
func sidecarFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && parity.IsSidecar(d.Name()) {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	return out
}

// TestParityLocalRepairAndFallback is the acceptance scenario: on a
// parity-enabled consumer, damage within the parity budget (≤m blocks) is
// rebuilt in place from the sidecar — byte-identical, no quarantine, zero
// WAN bytes — while damage beyond the budget (>m blocks) falls back to
// the PR 5 quarantine + re-pull path, with the two modes split exactly in
// the degraded-mode byte counters.
func TestParityLocalRepairAndFallback(t *testing.T) {
	const (
		k    = 4
		m    = 2
		size = 8192
	)
	seed := paritySeed(t)
	ctx := context.Background()
	base := t.TempDir()
	g, err := testbed.NewGrid(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prodReg, consReg := obs.NewRegistry(), obs.NewRegistry()
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Durable: true,
		Metrics: prodReg,
		Retry:   fastRetry(3),
		ParityK: k,
		ParityM: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{
		AutoReplicate: true,
		Durable:       true,
		Metrics:       consReg,
		Retry:         fastRetry(3),
		ParityK:       k,
		ParityM:       m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.SubscribeTo(prod.Addr()); err != nil {
		t.Fatal(err)
	}

	data := testbed.MakeData(size, seed+1)
	pf := publishData(t, g, prod, "par/coded.db", data)
	waitUntil(t, 10*time.Second, "auto-replication of the coded file", func() bool {
		return cons.HasFile(pf.LFN)
	})

	// Both the producer's original and the landed replica got sidecars.
	consPath := filepath.Join(cons.DataDir(), "par", "coded.db")
	for _, p := range []string{
		parity.SidecarPath(filepath.Join(prod.DataDir(), "par", "coded.db")),
		parity.SidecarPath(consPath),
	} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("sidecar missing after publish/land: %v", err)
		}
	}

	// Damage within the budget: m distinct coded blocks. One scrub pass
	// rebuilds in place — no corruption verdict, no repair queued.
	bs := parityBlockSize(size, k)
	damaged, err := faults.FlipBlocks(consPath, seed, bs, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("within-budget damage: blocks %v", damaged)
	rep, err := cons.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 1 || rep.Rebuilt != 1 || rep.Corrupt != 0 || rep.Repairs != 0 || rep.Fallbacks != 0 {
		t.Fatalf("scrub report = %+v, want 1 scanned / 1 rebuilt / 0 corrupt", rep)
	}
	got, err := os.ReadFile(consPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("rebuilt replica is not byte-identical")
	}
	qdir := filepath.Join(base, "fnal.gov", "state", "quarantine")
	if ents, err := os.ReadDir(qdir); err == nil && len(ents) != 0 {
		t.Fatalf("local rebuild quarantined %d files, want 0", len(ents))
	}

	// Damage beyond the budget: m+1 blocks. Rebuild must refuse, the
	// replica is quarantined and withdrawn, and the repair driver re-pulls
	// it over the WAN — landing a fresh sidecar with it.
	damaged, err = faults.FlipBlocks(consPath, seed+2, bs, m+1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("beyond-budget damage: blocks %v", damaged)
	rep, err = cons.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 1 || rep.Rebuilt != 0 || rep.Corrupt != 1 || rep.Fallbacks != 1 || rep.Repairs != 1 {
		t.Fatalf("scrub report = %+v, want 1 corrupt / 1 fallback / 1 repair", rep)
	}
	if err := cons.RepairQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(consPath)
	if err != nil {
		t.Fatal(err)
	}
	if !cons.HasFile(pf.LFN) || string(got) != string(data) {
		t.Fatal("fallback replica was not re-pulled byte-identically")
	}
	if _, err := os.Stat(parity.SidecarPath(consPath)); err != nil {
		t.Fatalf("sidecar not regenerated after fallback re-pull: %v", err)
	}
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("quarantine holds %d files after fallback, want 1", len(ents))
	}

	// Exact degraded-mode accounting: the rebuild healed m blocks locally,
	// the fallback re-crossed the WAN with the whole file.
	text := consReg.Text()
	for series, want := range map[string]float64{
		"gdmp_parity_sidecars_total":       2, // landing + post-fallback regeneration
		"gdmp_parity_rebuilds_total":       1,
		"gdmp_parity_fallbacks_total":      1,
		"gdmp_repair_bytes_local_total":    float64(int64(m) * bs),
		"gdmp_repair_bytes_repulled_total": size,
		"gdmp_scrub_corrupt_total":         1,
		"gdmp_repair_attempts_total":       1,
		"gdmp_repair_success_total":        1,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestParityPartitionedSiteHealsLocally is the zero-WAN proof: a consumer
// cut off from every peer (its only producer is dead) still heals
// within-budget bit-rot purely from its local sidecar, with
// gdmp_repair_bytes_repulled_total pinned at zero.
func TestParityPartitionedSiteHealsLocally(t *testing.T) {
	const (
		k    = 8
		m    = 2
		size = 16000
	)
	seed := paritySeed(t)
	ctx := context.Background()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	consReg := obs.NewRegistry()
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Retry: fastRetry(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{
		AutoReplicate: true,
		Durable:       true,
		Metrics:       consReg,
		Retry:         fastRetry(2),
		ParityK:       k,
		ParityM:       m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.SubscribeTo(prod.Addr()); err != nil {
		t.Fatal(err)
	}
	data := testbed.MakeData(size, seed+1)
	pf := publishData(t, g, prod, "iso/lonely.db", data)
	waitUntil(t, 10*time.Second, "auto-replication", func() bool {
		return cons.HasFile(pf.LFN)
	})

	// Partition: the only peer dies. Any repair needing the WAN would fail.
	prod.Kill()

	consPath := filepath.Join(cons.DataDir(), "iso", "lonely.db")
	bs := parityBlockSize(size, k)
	if _, err := faults.FlipBlocks(consPath, seed, bs, m); err != nil {
		t.Fatal(err)
	}
	rep, err := cons.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 1 || rep.Rebuilt != 1 || rep.Corrupt != 0 || rep.Repairs != 0 {
		t.Fatalf("scrub report = %+v, want 1 rebuilt with no repairs queued", rep)
	}
	got, err := os.ReadFile(consPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("partitioned site did not heal byte-identically")
	}

	// The anti-entropy round sees the partition for what it is — and the
	// heal still cost zero WAN bytes.
	ae, err := cons.AntiEntropyPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ae.Peers != 1 || ae.Failed != 1 {
		t.Fatalf("anti-entropy report = %+v, want the one peer unreachable", ae)
	}
	text := consReg.Text()
	for series, want := range map[string]float64{
		"gdmp_parity_rebuilds_total":       1,
		"gdmp_parity_fallbacks_total":      0,
		"gdmp_repair_bytes_local_total":    float64(int64(m) * bs),
		"gdmp_repair_bytes_repulled_total": 0,
		"gdmp_repair_attempts_total":       0,
		"gdmp_scrub_corrupt_total":         0,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestParityCrashMidSidecarWrite pins the crash-safety ordering around
// sidecar writes: after an abrupt kill, restart recovery quarantines
// sidecar staging debris, drops journaled sidecars that no longer verify,
// re-adopts a valid sidecar the crash left unjournaled (bytes renamed,
// journal record never committed), and the next scrub passes regenerate
// and rebuild as if nothing happened.
func TestParityCrashMidSidecarWrite(t *testing.T) {
	const (
		k    = 4
		m    = 2
		size = 6000
	)
	seed := paritySeed(t)
	ctx := context.Background()
	base := crashDir(t)
	g, err := testbed.NewGrid(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	reg := obs.NewRegistry()
	site, err := g.AddSite("desy.de", testbed.SiteOptions{
		Durable: true,
		Metrics: reg,
		Retry:   fastRetry(1),
		ParityK: k,
		ParityM: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	aData := testbed.MakeData(size, seed+1)
	bData := testbed.MakeData(size, seed+2)
	publishData(t, g, site, "crash/a.db", aData)
	publishData(t, g, site, "crash/b.db", bData)
	aPath := filepath.Join(site.DataDir(), "crash", "a.db")
	bPath := filepath.Join(site.DataDir(), "crash", "b.db")
	for _, p := range []string{aPath, bPath} {
		if _, err := os.Stat(parity.SidecarPath(p)); err != nil {
			t.Fatalf("sidecar missing after publish: %v", err)
		}
	}

	site.Kill()

	// The crash left a mess: both journaled sidecars rotted on disk, and a
	// sidecar write died mid-stage, leaving .part debris.
	if _, err := faults.FlipBytes(parity.SidecarPath(aPath), seed+3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := faults.FlipBytes(parity.SidecarPath(bPath), seed+4, 4); err != nil {
		t.Fatal(err)
	}
	debris := parity.SidecarPath(filepath.Join(site.DataDir(), "crash", "c.db")) + gridftp.PartSuffix
	if err := os.WriteFile(debris, []byte("torn sidecar write"), 0o644); err != nil {
		t.Fatal(err)
	}

	site, err = g.RestartSite("desy.de")
	if err != nil {
		t.Fatal(err)
	}

	// Recovery: debris quarantined, unverifiable sidecars dropped.
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("sidecar staging debris survived recovery in the data dir")
	}
	qdir := filepath.Join(base, "desy.de", "state", "quarantine")
	ents, err := os.ReadDir(qdir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("quarantine after recovery = %v entries (%v), want 1", len(ents), err)
	}
	if scs := sidecarFiles(t, site.DataDir()); len(scs) != 0 {
		t.Fatalf("unverifiable sidecars survived recovery: %v", scs)
	}

	// The other crash window: sidecar bytes renamed into place, journal
	// record never committed. Plant exactly that state for b, then rot b's
	// data within budget — the pass must re-adopt the sidecar and rebuild.
	sc, err := parity.CreateFile(bPath, k, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.WriteFile(parity.SidecarPath(bPath)); err != nil {
		t.Fatal(err)
	}
	bs := parityBlockSize(size, k)
	if _, err := faults.FlipBlocks(bPath, seed+5, bs, m); err != nil {
		t.Fatal(err)
	}
	rep, err := site.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 2 || rep.Rebuilt != 1 || rep.Corrupt != 0 {
		t.Fatalf("post-crash scrub report = %+v, want 2 scanned / 1 rebuilt", rep)
	}
	got, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(bData) {
		t.Fatal("re-adopted sidecar did not rebuild byte-identically")
	}
	// a was healthy without a usable sidecar: the same pass regenerated it.
	if _, err := os.Stat(parity.SidecarPath(aPath)); err != nil {
		t.Fatalf("sidecar of a.db not regenerated after recovery drop: %v", err)
	}

	// The regenerated sidecar is live, not just present: rot a within
	// budget and rebuild from it.
	if _, err := faults.FlipBlocks(aPath, seed+6, bs, m); err != nil {
		t.Fatal(err)
	}
	rep, err = site.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuilt != 1 || rep.Corrupt != 0 {
		t.Fatalf("regenerated-sidecar scrub report = %+v, want 1 rebuilt", rep)
	}
	if got, _ := os.ReadFile(aPath); string(got) != string(aData) {
		t.Fatal("regenerated sidecar did not rebuild byte-identically")
	}

	text := reg.Text()
	for series, want := range map[string]float64{
		// 2 at publish + 1 regeneration (the re-adoption is not a new write)
		"gdmp_parity_sidecars_total":       3,
		"gdmp_parity_rebuilds_total":       2,
		"gdmp_parity_fallbacks_total":      0,
		"gdmp_repair_bytes_repulled_total": 0,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestParitySidecarRetention pins the retention contract: a sidecar never
// outlives the replica it describes. Withdrawal (damage beyond budget)
// deletes it with the data file, a missing replica's sidecar is dropped by
// the same pass that notices, an orphan on disk is swept within one pass,
// and no sidecar ever lands in quarantine.
func TestParitySidecarRetention(t *testing.T) {
	const (
		k    = 4
		m    = 2
		size = 6000
	)
	seed := paritySeed(t)
	ctx := context.Background()
	base := t.TempDir()
	g, err := testbed.NewGrid(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	reg := obs.NewRegistry()
	site, err := g.AddSite("in2p3.fr", testbed.SiteOptions{
		Durable: true,
		Metrics: reg,
		Retry:   fastRetry(1),
		ParityK: k,
		ParityM: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	publishData(t, g, site, "ret/doomed.db", testbed.MakeData(size, seed+1))
	publishData(t, g, site, "ret/vanish.db", testbed.MakeData(size, seed+2))
	doomed := filepath.Join(site.DataDir(), "ret", "doomed.db")
	vanish := filepath.Join(site.DataDir(), "ret", "vanish.db")

	// Beyond-budget damage withdraws the replica; its sidecar must go with
	// it — deleted, not quarantined. The repair fails (no other replica
	// exists), so nothing resurrects either file.
	bs := parityBlockSize(size, k)
	if _, err := faults.FlipBlocks(doomed, seed, bs, m+1); err != nil {
		t.Fatal(err)
	}
	rep, err := site.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Fallbacks != 1 {
		t.Fatalf("scrub report = %+v, want 1 corrupt / 1 fallback", rep)
	}
	if err := site.RepairQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(parity.SidecarPath(doomed)); !os.IsNotExist(err) {
		t.Fatal("withdrawn replica's sidecar outlived it")
	}
	qdir := filepath.Join(base, "in2p3.fr", "state", "quarantine")
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("quarantine holds %d files, want only the corrupt data file", len(ents))
	}
	for _, e := range ents {
		if parity.IsSidecar(e.Name()) {
			t.Fatalf("a sidecar was quarantined: %s", e.Name())
		}
	}

	// Orphans: a replica whose bytes vanish loses its sidecar in the pass
	// that notices, and a stray sidecar next to nothing is swept the same
	// way.
	if err := os.Remove(vanish); err != nil {
		t.Fatal(err)
	}
	ghost := parity.SidecarPath(filepath.Join(site.DataDir(), "ret", "ghost.db"))
	if err := os.WriteFile(ghost, []byte("parity for nothing"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = site.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing != 1 {
		t.Fatalf("scrub report = %+v, want 1 missing", rep)
	}
	if err := site.RepairQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if scs := sidecarFiles(t, site.DataDir()); len(scs) != 0 {
		t.Fatalf("sidecars outlived their replicas: %v", scs)
	}

	// Restart resurrection check: the journal agrees nothing survives.
	site.Kill()
	site, err = g.RestartSite("in2p3.fr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := site.ScrubPass(ctx); err != nil {
		t.Fatal(err)
	}
	if scs := sidecarFiles(t, site.DataDir()); len(scs) != 0 {
		t.Fatalf("restart resurrected sidecars: %v", scs)
	}
}
