// Self-healing integration tests: the scrubber, the anti-entropy
// exchange, and the repair driver must together bring a damaged grid back
// to a fully verified state, with the gdmp_scrub_* / gdmp_antientropy_* /
// gdmp_repair_* series accounting for every finding exactly.
//
// Every test logs its seed; set SCRUB_SEED to replay a run.
package gdmp_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// scrubSeed returns the run's bit-rot seed (overridable with SCRUB_SEED)
// and logs it so a failure replays exactly.
func scrubSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("SCRUB_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SCRUB_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("scrub seed: %d (set SCRUB_SEED to replay)", seed)
	return seed
}

// TestSelfHealScrubAndAntiEntropy is the acceptance scenario: a subscriber
// whose replica silently rots on disk AND who missed one publication
// notification must converge back to a complete, verified catalog within
// one scrub pass plus one anti-entropy round — corrupt bytes quarantined,
// the replica re-pulled and CRC-verified, the missed file replicated, a
// planted dangling catalog location withdrawn, and every finding counted
// exactly once.
func TestSelfHealScrubAndAntiEntropy(t *testing.T) {
	seed := scrubSeed(t)
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
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{
		AutoReplicate:  true,
		Durable:        true,
		Metrics:        consReg,
		Retry:          fastRetry(3),
		ScrubRateBytes: 64 << 20, // fast, but through the rate limiter
	})
	if err != nil {
		t.Fatal(err)
	}

	// The missed notification: published before the consumer subscribes,
	// so no notice is ever queued for it.
	missedData := testbed.MakeData(24_000, seed+1)
	missed := publishData(t, g, prod, "heal/missed.db", missedData)

	if err := cons.SubscribeTo(prod.Addr()); err != nil {
		t.Fatal(err)
	}

	// The rotting file: replicated normally first.
	rotData := testbed.MakeData(48_000, seed+2)
	rot := publishData(t, g, prod, "heal/rotten.db", rotData)
	waitUntil(t, 10*time.Second, "auto-replication of the rotten file", func() bool {
		return cons.HasFile(rot.LFN)
	})

	// Bit-rot: flip three bytes of the consumer's replica in place.
	consRotPath := filepath.Join(cons.DataDir(), "heal", "rotten.db")
	if _, err := faults.FlipBytes(consRotPath, seed, 3); err != nil {
		t.Fatal(err)
	}

	// A dangling location: the catalog claims the consumer holds the
	// missed file, but it never arrived. Anti-entropy must withdraw it.
	dangling := "gridftp://" + cons.DataAddr() + "/heal/missed.db"
	if err := g.Catalog.AddReplica(missed.LFN, dangling); err != nil {
		t.Fatal(err)
	}

	// One scrub pass: the corruption is found, quarantined, and repaired.
	rep, err := cons.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 1 || rep.Corrupt != 1 || rep.Missing != 0 || rep.Repairs != 1 || rep.Resumed {
		t.Fatalf("scrub report = %+v, want 1 scanned / 1 corrupt / 1 repair", rep)
	}
	if err := cons.RepairQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(consRotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !cons.HasFile(rot.LFN) || string(got) != string(rotData) {
		t.Fatal("rotten replica was not re-pulled byte-identically")
	}

	// One anti-entropy round: the missed file surfaces as a producer diff,
	// its dangling location is withdrawn, and the repair pulls it.
	ae, err := cons.AntiEntropyPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ae.Peers != 1 || ae.Failed != 0 || ae.Missing != 1 || ae.Dangling != 1 || ae.Repairs != 1 {
		t.Fatalf("anti-entropy report = %+v, want 1 peer / 1 missing / 1 dangling / 1 repair", ae)
	}
	if err := cons.RepairQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(filepath.Join(cons.DataDir(), "heal", "missed.db"))
	if err != nil {
		t.Fatal(err)
	}
	if !cons.HasFile(missed.LFN) || string(got) != string(missedData) {
		t.Fatal("missed file was not replicated byte-identically")
	}

	// The corrupt bytes are preserved as evidence.
	qdir := filepath.Join(base, "fnal.gov", "state", "quarantine")
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(ents))
	}
	qbytes, err := os.ReadFile(filepath.Join(qdir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(qbytes) != len(rotData) || string(qbytes) == string(rotData) {
		t.Fatal("quarantined bytes are not the corrupted replica")
	}

	// The producer's own round against its subscriber finds nothing left.
	aeProd, err := prod.AntiEntropyPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if aeProd.Peers != 1 || aeProd.Failed != 0 || aeProd.Missing != 0 ||
		aeProd.Stale != 0 || aeProd.Dangling != 0 || aeProd.Repairs != 0 {
		t.Fatalf("producer anti-entropy after healing = %+v, want all clear", aeProd)
	}

	// 0 = ok (-1 would mean no journal at all).
	if failed := metricValue(consReg.Text(), "gdmp_journal_failed"); failed != 0 {
		t.Fatalf("consumer gdmp_journal_failed = %v, want 0", failed)
	}

	// Exact accounting: every finding counted once, nothing else.
	text := consReg.Text()
	for series, want := range map[string]float64{
		"gdmp_scrub_files_scanned_total":               1,
		"gdmp_scrub_bytes_scanned_total":               float64(len(rotData)),
		"gdmp_scrub_corrupt_total":                     1,
		"gdmp_scrub_missing_total":                     0,
		"gdmp_scrub_passes_total":                      1,
		"gdmp_scrub_quarantine_files":                  1,
		"gdmp_scrub_quarantine_swept_total":            0,
		"gdmp_antientropy_rounds_total":                1,
		`gdmp_antientropy_peers_total{outcome="ok"}`:   1,
		`gdmp_antientropy_diff_total{kind="missing"}`:  1,
		`gdmp_antientropy_diff_total{kind="dangling"}`: 1,
		"gdmp_repair_attempts_total":                   2,
		"gdmp_repair_success_total":                    2,
		"gdmp_repair_failure_total":                    0,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestAntiEntropyConvergenceProperty is the property-style check: two
// sites whose catalogs are randomly diverged — bit-rot, vanished bytes,
// and withdrawn replicas on either side — must reach an identical, fully
// verified state within a bounded number of scrub + anti-entropy rounds.
func TestAntiEntropyConvergenceProperty(t *testing.T) {
	const (
		nFiles    = 8
		maxRounds = 4
	)
	seed := scrubSeed(t)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Durable: true,
		Retry:   fastRetry(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{
		Durable: true,
		Retry:   fastRetry(3),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Publish on the producer, replicate everything to the consumer.
	rels := make([]string, nFiles)
	data := make(map[string][]byte, nFiles)
	lfns := make([]string, nFiles)
	for i := range rels {
		rels[i] = filepath.Join("prop", "f"+strconv.Itoa(i)+".db")
		d := testbed.MakeData(4096+rng.Intn(28_672), seed+int64(i))
		pf := publishData(t, g, prod, rels[i], d)
		data[pf.LFN] = d
		lfns[i] = pf.LFN
	}
	if err := cons.SubscribeTo(prod.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, lfn := range lfns {
		if err := cons.Get(lfn); err != nil {
			t.Fatal(err)
		}
	}

	// Diverge. One roll per file so the two sites never lose the same
	// bytes simultaneously (an unrecoverable state no protocol can heal).
	// The first four files force one scenario each so every code path runs
	// regardless of seed; the rest roll randomly.
	const (
		dIntact = iota
		dFlipCons
		dDeleteCons
		dWithdrawCons
		dFlipProd
		dDeleteProd
		dKinds
	)
	damaged := make([]int, nFiles)
	for i, lfn := range lfns {
		kind := i + 1 // forced coverage: files 0..3 take dFlipCons..dFlipProd
		if kind > dFlipProd {
			kind = rng.Intn(dKinds)
		}
		damaged[i] = kind
		consPath := filepath.Join(cons.DataDir(), rels[i])
		prodPath := filepath.Join(prod.DataDir(), rels[i])
		switch kind {
		case dFlipCons:
			if _, err := faults.FlipBytes(consPath, rng.Int63(), 1+rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
		case dDeleteCons:
			if err := os.Remove(consPath); err != nil {
				t.Fatal(err)
			}
		case dWithdrawCons:
			if err := cons.RemoveLocal(lfn); err != nil {
				t.Fatal(err)
			}
		case dFlipProd:
			if _, err := faults.FlipBytes(prodPath, rng.Int63(), 1+rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
		case dDeleteProd:
			if err := os.Remove(prodPath); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("divergence rolls: %v", damaged)

	// Rounds of scrub + anti-entropy + repair on both sides.
	intact := func(s *core.Site, dataDir string) bool {
		for i, lfn := range lfns {
			if !s.HasFile(lfn) {
				return false
			}
			got, err := os.ReadFile(filepath.Join(dataDir, rels[i]))
			if err != nil || string(got) != string(data[lfn]) {
				return false
			}
		}
		return true
	}
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		for _, s := range []*core.Site{prod, cons} {
			if _, err := s.ScrubPass(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AntiEntropyPass(ctx); err != nil {
				t.Fatal(err)
			}
			if err := s.RepairQuiesce(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if intact(prod, prod.DataDir()) && intact(cons, cons.DataDir()) {
			break
		}
	}
	if rounds == maxRounds {
		t.Fatalf("grids did not converge within %d rounds", maxRounds)
	}
	t.Logf("converged after %d round(s)", rounds+1)

	// The converged state is verified (a final scrub finds nothing) and
	// the two catalogs are entry-for-entry identical.
	for _, s := range []*core.Site{prod, cons} {
		rep, err := s.ScrubPass(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scanned != nFiles || rep.Corrupt != 0 || rep.Missing != 0 {
			t.Fatalf("%s post-convergence scrub = %+v, want %d clean files",
				s.Name(), rep, nFiles)
		}
	}
	type entry struct {
		lfn, crc string
		size     int64
	}
	digest := func(s *core.Site) []entry {
		var out []entry
		for _, fi := range s.LocalFiles() {
			out = append(out, entry{fi.LFN, fi.CRC32, fi.Size})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].lfn < out[j].lfn })
		return out
	}
	dp, dc := digest(prod), digest(cons)
	if len(dp) != nFiles || len(dc) != nFiles {
		t.Fatalf("digest sizes %d/%d, want %d", len(dp), len(dc), nFiles)
	}
	for i := range dp {
		if dp[i] != dc[i] {
			t.Fatalf("digests diverge at %d: producer %+v, consumer %+v", i, dp[i], dc[i])
		}
	}
}

// TestQuarantineRetentionBounds pins the quarantine sweep: the count cap
// trims the oldest evidence after a scrub pass, and the age cap reclaims
// files once they outlive the configured retention.
func TestQuarantineRetentionBounds(t *testing.T) {
	seed := scrubSeed(t)
	ctx := context.Background()
	base := t.TempDir()
	g, err := testbed.NewGrid(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	countReg, ageReg := obs.NewRegistry(), obs.NewRegistry()
	byCount, err := g.AddSite("desy.de", testbed.SiteOptions{
		Durable:            true,
		Metrics:            countReg,
		Retry:              fastRetry(1),
		QuarantineMaxCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	byAge, err := g.AddSite("in2p3.fr", testbed.SiteOptions{
		Durable:          true,
		Metrics:          ageReg,
		Retry:            fastRetry(1),
		QuarantineMaxAge: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Count cap: four corrupt replicas quarantined in one pass, only the
	// two newest survive the sweep. The repairs are expected to fail —
	// these files have no other replica — and that must be accounted too.
	for i := 0; i < 4; i++ {
		rel := filepath.Join("q", "c"+strconv.Itoa(i)+".db")
		publishData(t, g, byCount, rel, testbed.MakeData(2048, seed+int64(i)))
		if _, err := faults.FlipBytes(filepath.Join(byCount.DataDir(), rel), seed+int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := byCount.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 4 {
		t.Fatalf("scrub found %d corrupt, want 4", rep.Corrupt)
	}
	if err := byCount.RepairQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	qdir := filepath.Join(base, "desy.de", "state", "quarantine")
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("quarantine holds %d files after count sweep, want 2", len(ents))
	}
	text := countReg.Text()
	for series, want := range map[string]float64{
		"gdmp_scrub_corrupt_total":          4,
		"gdmp_scrub_quarantine_swept_total": 2,
		"gdmp_scrub_quarantine_files":       2,
		"gdmp_repair_failure_total":         4,
		"gdmp_repair_success_total":         0,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// Age cap: quarantined files backdated past the retention window are
	// reclaimed by the next pass's sweep.
	for i := 0; i < 2; i++ {
		rel := filepath.Join("q", "a"+strconv.Itoa(i)+".db")
		publishData(t, g, byAge, rel, testbed.MakeData(2048, seed+10+int64(i)))
		if _, err := faults.FlipBytes(filepath.Join(byAge.DataDir(), rel), seed+10+int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := byAge.ScrubPass(ctx); err != nil {
		t.Fatal(err)
	}
	if err := byAge.RepairQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	qdir = filepath.Join(base, "in2p3.fr", "state", "quarantine")
	ents, err = os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("quarantine holds %d files before aging, want 2", len(ents))
	}
	old := time.Now().Add(-2 * time.Hour)
	for _, e := range ents {
		if err := os.Chtimes(filepath.Join(qdir, e.Name()), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := byAge.ScrubPass(ctx); err != nil {
		t.Fatal(err)
	}
	ents, err = os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("quarantine holds %d files after age sweep, want 0", len(ents))
	}
	text = ageReg.Text()
	for series, want := range map[string]float64{
		"gdmp_scrub_quarantine_swept_total": 2,
		"gdmp_scrub_quarantine_files":       0,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}
