// Replica location integration tests: a site finds a replica in its own
// local catalog (the "lrc" tier, read-your-writes) or in the central
// catalog's location table (the "catalog" tier), and a location the
// central catalog lost heals when the holder's scrub pass re-asserts it.
package gdmp_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"gdmp/internal/obs"
	"gdmp/internal/rpc"
	"gdmp/internal/testbed"
)

// TestRLSReadYourWrites: a freshly published file is visible to its own
// site through the LRC tier immediately, and to a peer through the
// central catalog.
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

// TestRLSPullLocateCounted: a pull locates its sources through the same
// tiers as Locate and is counted the same way, so a deployment's
// gdmp_rls_locate_* families (and `gdmp status`'s locate p99) move with
// its pulls: one Get is one catalog-tier locate and one latency sample.
func TestRLSPullLocateCounted(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	pf := publishData(t, g, prod, "rls/pulled.db", testbed.MakeData(8_000, 3))
	counts := func() (catalog, samples float64) {
		text := reg.Text()
		return max(0, metricValue(text, `gdmp_rls_locate_total{source="catalog"}`)),
			metricValue(text, "gdmp_rls_locate_seconds_count")
	}
	if catalog, samples := counts(); catalog != 0 || samples != 0 {
		t.Fatalf("before the pull: %v catalog locates, %v latency samples; want 0, 0", catalog, samples)
	}
	if err := cons.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if catalog, samples := counts(); catalog != 1 || samples != 1 {
		t.Fatalf("after one pull: %v catalog locates, %v latency samples; want 1, 1", catalog, samples)
	}
}

// catalogRequests counts the requests the grid's catalog server has
// served, by method. testbed.NewGrid builds that server on obs.Default.
func catalogRequests() map[string]int {
	out := map[string]int{}
	for _, line := range strings.Split(obs.Default.Text(), "\n") {
		rest, ok := strings.CutPrefix(line, rpc.ServerMetricsPrefix+`_requests_total{method="`)
		if !ok {
			continue
		}
		method, _, _ := strings.Cut(rest, `"`)
		v, _ := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		out[method] += int(v)
	}
	return out
}

// TestRLSScrubHealsLocationLoss: when the central catalog's location table
// loses a replica (a withdrawal race, a partial registration), a pull
// fails after the two catalog requests that find nothing, and the holder's
// next scrub pass re-asserts the location, so the same pull then succeeds
// and a third site locates the replica through the catalog tier.
func TestRLSScrubHealsLocationLoss(t *testing.T) {
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
	cons, err := g.AddSite("fnal.gov", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	third, err := g.AddSite("anl.gov", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	pf := publishData(t, g, prod, "rls/lost.db", testbed.MakeData(32_000, 2))

	// The central location table forgets the replica while the file is
	// still on the producer's disk and in its local catalog.
	if err := g.Catalog.RemoveReplica(pf.LFN, pf.PFN.String()); err != nil {
		t.Fatal(err)
	}
	if locs, _ := g.Catalog.Locations(pf.LFN); len(locs) != 0 {
		t.Fatalf("location table still has %v", locs)
	}

	before := catalogRequests()
	err = cons.GetCtx(ctx, pf.LFN)
	if err == nil || !strings.Contains(err.Error(), "no remote replica") {
		t.Fatalf("Get after location loss = %v, want no remote replica", err)
	}
	after := catalogRequests()
	sent := map[string]int{}
	total := 0
	for method, n := range after {
		if d := n - before[method]; d != 0 {
			sent[method] = d
			total += d
		}
	}
	if total != 2 || sent["rc.lookup"] != 1 || sent["rc.locations"] != 1 {
		t.Fatalf("the failed Get sent %v to the catalog, want one rc.lookup and one rc.locations", sent)
	}

	// One scrub pass on the holder re-asserts the location.
	if _, err := prod.ScrubPass(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cons.GetCtx(ctx, pf.LFN); err != nil {
		t.Fatalf("Get after the holder's scrub pass: %v", err)
	}
	if !cons.HasFile(pf.LFN) {
		t.Fatal("file did not land after the scrub pass")
	}
	if _, source, err := third.Locate(ctx, pf.LFN); err != nil || source != "catalog" {
		t.Fatalf("third site's Locate = %q, %v; want catalog", source, err)
	}
}
