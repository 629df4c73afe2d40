package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/core"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
	"gdmp/internal/rpc"
	"gdmp/internal/testbed"
)

func newGrid(t *testing.T) *testbed.Grid {
	t.Helper()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// dialSite opens an operator's client to a site's control endpoint.
func dialSite(t *testing.T, g *testbed.Grid, site *core.Site) *rpc.Client {
	t.Helper()
	cred, err := g.CA.Issue("operator", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := rpc.DialContext(context.Background(), site.Addr(), cred, g.Roots, rpc.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// scrape fetches a site's exposition the way `gdmp status` does.
func scrape(t *testing.T, cl *rpc.Client) *exposition {
	t.Helper()
	d, err := cl.CallContext(context.Background(), core.MethodMetrics, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := d.String()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	m, err := parseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func publish(t *testing.T, g *testbed.Grid, site *core.Site, rel string, size int) core.PublishedFile {
	t.Helper()
	if _, err := g.WriteSiteFile(site.Name(), rel, testbed.MakeData(size, int64(len(rel)))); err != nil {
		t.Fatal(err)
	}
	pf, err := site.Publish(rel, core.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestStatusFamiliesRegistered guards the string coupling between the
// status view and the registry: a metric family renamed on the site side
// would otherwise print as zeros. On a site with parity, an MSS pool, a
// journal, RLS digests and admission control on, every family the view
// reads must be registered with help text, and every block prints.
func TestStatusFamiliesRegistered(t *testing.T) {
	g := newGrid(t)
	cern, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fnal, err := g.AddSite("fnal.gov", testbed.SiteOptions{
		Durable:   true,
		WithMSS:   true,
		ParityK:   parity.DefaultK,
		ParityM:   parity.DefaultM,
		Admission: admission.Config{ControlSlots: 4, BulkSlots: 2, BackgroundSlots: 1, BrownoutEnter: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	pf := publish(t, g, cern, "runs/a.db", 50_000)
	if err := fnal.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if _, err := fnal.PushDigest(context.Background()); err != nil {
		t.Fatal(err)
	}

	cl := dialSite(t, g, fnal)
	m := scrape(t, cl)
	var out strings.Builder
	renderStatus(&out, fnal.Name(), m)
	if len(m.read) < 30 {
		t.Fatalf("the view read %d families, want every one it renders", len(m.read))
	}
	for name := range m.read {
		if !m.Typed[name] || m.Help[name] == "" {
			t.Errorf("gdmp status reads %s, which the site does not register with help text", name)
		}
	}
	for _, want := range []string{
		"site fnal.gov: 1 local files, 0 subscribers",
		"transfers: 1 ok, 0 failed, 50000 bytes replicated, 0 pending",
		"journal: ok",
		"pool: ",
		"parity: 1 sidecars",
		"rls: digest gen 1 (1 LFNs, 1 pushes)",
		"peer health:\n",
		"  " + cern.DataAddr() + ": breaker closed",
		", since ",
		"admission: normal",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("status lacks %q:\n%s", want, out.String())
		}
	}
}

// TestStatusAfterRestart: a site restarted from its journal reports what
// recovery rebuilt. The gauges the view reads are overwritten with wrong
// values between the two lives (the testbed restarts a site on the same
// registry), so every number printed was set by the restart itself.
func TestStatusAfterRestart(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	cern, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Metrics:                reg,
		Durable:                true,
		NotifyFailureThreshold: 1 << 20, // the dead subscriber is never dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber nobody answers for: every notice to it stays queued.
	var e rpc.Encoder
	e.String("fnal.gov")
	e.String("127.0.0.1:1")
	if _, err := dialSite(t, g, cern).CallContext(context.Background(), core.MethodSubscribe, &e); err != nil {
		t.Fatal(err)
	}
	publish(t, g, cern, "runs/a.db", 10_000)
	publish(t, g, cern, "runs/b.db", 10_000)
	queued := reg.Gauge(core.SiteMetricsPrefix+"_notify_queue_depth", "")
	for deadline := time.Now().Add(10 * time.Second); queued.Value() != 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("notify queue depth = %d, want 2", queued.Value())
		}
	}

	cern.Kill()
	for _, name := range []string{
		core.SiteMetricsPrefix + "_local_files",
		core.SiteMetricsPrefix + "_subscribers",
		core.RecoveryMetricsPrefix + "_files_restored",
		core.RecoveryMetricsPrefix + "_notices_requeued",
		"gdmp_journal_failed",
	} {
		reg.Gauge(name, "").Set(99)
	}
	cern, err = g.RestartSite("cern.ch")
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := printStatus(context.Background(), &out, dialSite(t, g, cern)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"site cern.ch: 2 local files, 1 subscribers",
		"last restart: 2 files restored, 0 pulls requeued, 2 notices requeued, 0 quarantined",
		"journal: ok",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("status lacks %q:\n%s", want, out.String())
		}
	}
}
