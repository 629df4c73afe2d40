// Replica Location Service integration tests: the two-tier RLS split of
// the replica catalog. A site's local catalog doubles as its Local
// Replica Catalog (LRC), bloom digests of it live as soft state in the
// Replica Location Index co-hosted with the central catalog server, and
// lookups fall through three tiers — own LRC (read-your-writes), the
// central location table, and RLI candidates confirmed by LRC point
// queries.
//
// Every property test logs its seed; set RLS_SEED to replay a run.
package gdmp_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"gdmp/internal/obs"
	"gdmp/internal/replica"
	"gdmp/internal/testbed"
)

// rlsSeed returns the run's property-test seed (overridable with
// RLS_SEED) and logs it so a failure replays exactly.
func rlsSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260809)
	if s := os.Getenv("RLS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("RLS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("rls seed: %d (set RLS_SEED to replay)", seed)
	return seed
}

// TestRLSReadYourWrites: a freshly published file is visible to its own
// site through the LRC tier immediately — before any digest has been
// pushed, while every RLI view of the site is arbitrarily stale.
func TestRLSReadYourWrites(t *testing.T) {
	ctx := context.Background()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prodReg := obs.NewRegistry()
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{Metrics: prodReg})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	pf := publishData(t, g, prod, "rls/own.db", testbed.MakeData(8_000, 1))

	// No digest was ever pushed; the RLI has never heard of cern.ch.
	if got := g.CatalogSrv.RLI().Sites(); len(got) != 0 {
		t.Fatalf("RLI unexpectedly populated: %v", got)
	}
	pfns, source, err := prod.Locate(ctx, pf.LFN)
	if err != nil {
		t.Fatalf("own Locate: %v", err)
	}
	if source != "lrc" {
		t.Fatalf("own Locate answered from %q, want lrc", source)
	}
	if len(pfns) != 1 || pfns[0].Addr != prod.DataAddr() {
		t.Fatalf("own Locate = %v", pfns)
	}

	// A peer resolves through the central catalog tier.
	if _, source, err = cons.Locate(ctx, pf.LFN); err != nil || source != "catalog" {
		t.Fatalf("peer Locate = %q, %v; want catalog", source, err)
	}
}

// TestRLSRLIFallbackAfterLocationLoss is the acceptance scenario for the
// third tier: when the central catalog's location table loses a replica
// (withdrawal race, partial registration), a pull still succeeds by
// asking the RLI which LRCs might hold the LFN and confirming with a
// point query.
func TestRLSRLIFallbackAfterLocationLoss(t *testing.T) {
	ctx := context.Background()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	consReg := obs.NewRegistry()
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{Metrics: consReg})
	if err != nil {
		t.Fatal(err)
	}

	data := testbed.MakeData(32_000, 2)
	pf := publishData(t, g, prod, "rls/lost.db", data)

	// The producer condenses its LRC into the RLI.
	if outcome, err := prod.PushDigest(ctx); err != nil || outcome != replica.PushNew {
		t.Fatalf("PushDigest = %q, %v", outcome, err)
	}
	if gen := prod.DigestGeneration(); gen != 1 {
		t.Fatalf("DigestGeneration = %d", gen)
	}

	// The withdrawal race: the central location table forgets the replica
	// while the file is still on the producer's disk and in its LRC.
	if err := g.Catalog.RemoveReplica(pf.LFN, pf.PFN.String()); err != nil {
		t.Fatal(err)
	}
	if locs, _ := g.Catalog.Locations(pf.LFN); len(locs) != 0 {
		t.Fatalf("location table still has %v", locs)
	}

	// Tier three answers the peer's locate...
	pfns, source, err := cons.Locate(ctx, pf.LFN)
	if err != nil {
		t.Fatalf("Locate after location loss: %v", err)
	}
	if source != "rli" {
		t.Fatalf("Locate answered from %q, want rli", source)
	}
	if len(pfns) != 1 || pfns[0].Addr != prod.DataAddr() {
		t.Fatalf("Locate = %v", pfns)
	}

	// ...and the replication path uses the same fallback end to end.
	if err := cons.GetCtx(ctx, pf.LFN); err != nil {
		t.Fatalf("Get via RLI fallback: %v", err)
	}
	if !cons.HasFile(pf.LFN) {
		t.Fatal("file did not land via RLI fallback")
	}
	if got := metricValue(consReg.Text(), "gdmp_rls_rli_which_total"); got < 1 {
		t.Fatalf("gdmp_rls_rli_which_total = %v, want >= 1", got)
	}
}

// TestRLSFalsePositivesNeverWrongAnswer is the seeded FP property: for
// LFNs nobody holds, a digest false positive may cost an extra LRC point
// query but must never produce an answer — and every denied candidate is
// counted as a false positive exactly.
func TestRLSFalsePositivesNeverWrongAnswer(t *testing.T) {
	seed := rlsSeed(t)
	ctx := context.Background()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// A deliberately sloppy digest (10% FP target) makes false positives
	// likely enough to exercise the deny path within a few hundred probes.
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		DigestFPRate: 0.10,
	})
	if err != nil {
		t.Fatal(err)
	}
	consReg := obs.NewRegistry()
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{Metrics: consReg})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	held := make(map[string]bool)
	for i := 0; i < 64; i++ {
		rel := fmt.Sprintf("rls/fp%03d.db", i)
		pf := publishData(t, g, prod, rel, testbed.MakeData(100+rng.Intn(400), seed+int64(i)))
		held[pf.LFN] = true
	}
	if _, err := prod.PushDigest(ctx); err != nil {
		t.Fatal(err)
	}

	rli := g.CatalogSrv.RLI()
	candidates := 0
	for i := 0; i < 300; i++ {
		lfn := fmt.Sprintf("lfn://nowhere.ch/absent-%d", rng.Int63())
		if held[lfn] {
			continue
		}
		candidates += len(rli.MightHold(lfn))
		if _, _, err := cons.Locate(ctx, lfn); err == nil {
			t.Fatalf("seed=%d: Locate invented an answer for absent %s", seed, lfn)
		}
	}
	t.Logf("%d bloom false positives over 300 absent probes", candidates)

	// Every RLI candidate for an absent LFN was, by construction, a false
	// positive; each must have been denied by an LRC point query and
	// counted. (Locate consults the RLI once per miss, so the site-side
	// counter tracks the index-side candidate total exactly.)
	fp := metricValue(consReg.Text(), "gdmp_rls_rli_false_positives_total")
	if fp != float64(candidates) {
		t.Fatalf("seed=%d: false-positive counter = %v, want %d", seed, fp, candidates)
	}
}

// TestRLSDigestCrashRestartConverges: a site that crashes mid-push and
// restarts has its digest generation counter reset; the RLI's stale
// rejection hands back the newer indexed generation, and the site must
// converge (its fresh digest indexed) within one more push — not after
// waiting out the old entry's TTL.
func TestRLSDigestCrashRestartConverges(t *testing.T) {
	ctx := context.Background()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Generations 1 and 2 land before the crash.
	publishData(t, g, prod, "rls/a.db", testbed.MakeData(4_000, 10))
	if _, err := prod.PushDigest(ctx); err != nil {
		t.Fatal(err)
	}
	publishData(t, g, prod, "rls/b.db", testbed.MakeData(4_000, 11))
	if _, err := prod.PushDigest(ctx); err != nil {
		t.Fatal(err)
	}
	preGen := prod.DigestGeneration()
	if preGen != 2 {
		t.Fatalf("pre-crash generation = %d, want 2", preGen)
	}

	// SIGKILL-style crash and restart: the generation counter resets.
	prod, err = g.RestartSite("cern.ch")
	if err != nil {
		t.Fatal(err)
	}
	if prod.DigestGeneration() != 0 {
		t.Fatalf("restarted generation = %d, want 0", prod.DigestGeneration())
	}

	// First post-restart push is stale (gen 1 < indexed 2) and adopts the
	// indexed generation...
	outcome, err := prod.PushDigest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != replica.PushStale {
		t.Fatalf("post-restart push = %q, want %q", outcome, replica.PushStale)
	}
	// ...so the very next push supersedes the pre-crash entry.
	outcome, err = prod.PushDigest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != replica.PushRefresh {
		t.Fatalf("converging push = %q, want %q", outcome, replica.PushRefresh)
	}
	sites := g.CatalogSrv.RLI().Sites()
	if len(sites) != 1 || sites[0].Gen <= preGen {
		t.Fatalf("RLI after convergence = %+v, want gen > %d", sites, preGen)
	}
	if sites[0].Count != 2 {
		t.Fatalf("converged digest holds %d LFNs, want 2 (journal restore)", sites[0].Count)
	}
}

// TestRLSDigestTTLAgesOutDeadSite: a site that stops pushing ages out of
// the index, so peers stop burning point queries on a corpse.
func TestRLSDigestTTLAgesOutDeadSite(t *testing.T) {
	ctx := context.Background()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		DigestTTL: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pf := publishData(t, g, prod, "rls/mortal.db", testbed.MakeData(2_000, 20))
	if _, err := prod.PushDigest(ctx); err != nil {
		t.Fatal(err)
	}
	if got := g.CatalogSrv.RLI().MightHold(pf.LFN); len(got) != 1 {
		t.Fatalf("MightHold before TTL = %v", got)
	}
	waitUntil(t, 5*time.Second, "RLI entry to age out", func() bool {
		return len(g.CatalogSrv.RLI().Sites()) == 0
	})
	if got := g.CatalogSrv.RLI().MightHold(pf.LFN); len(got) != 0 {
		t.Fatalf("MightHold after TTL = %v", got)
	}
}

// TestRLSDigestLoopPushesPeriodically exercises the background pusher:
// with a short interval the site becomes RLI-routable on its own and
// refreshes after new publications without any manual push.
func TestRLSDigestLoopPushesPeriodically(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		DigestInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "first automatic digest push", func() bool {
		return len(g.CatalogSrv.RLI().Sites()) == 1
	})

	pf := publishData(t, g, prod, "rls/auto.db", testbed.MakeData(2_000, 30))
	waitUntil(t, 5*time.Second, "digest refresh to index the new LFN", func() bool {
		return len(g.CatalogSrv.RLI().MightHold(pf.LFN)) == 1
	})
}
