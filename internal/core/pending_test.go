package core_test

import (
	"reflect"
	"testing"

	"gdmp/internal/core"
	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// pendingGauge reads gdmp_site_pending_queue_depth from a site's registry.
func pendingGauge(reg *obs.Registry) int64 {
	return reg.Gauge(core.SiteMetricsPrefix+"_pending_queue_depth", "").Value()
}

// TestPendingAfterDirectGet: a notified file that arrives through a direct
// Get is owed no longer — not in the gauge, read before anything asks for
// Pending, nor in Pending.
func TestPendingAfterDirectGet(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Metrics: reg})
	if err := anl.SubscribeTo(cern.Addr()); err != nil {
		t.Fatal(err)
	}
	pf := publish(t, g, cern, "f.db", testbed.MakeData(20_000, 1), core.PublishOptions{})
	awaitPending(t, anl, pf.LFN)
	if n := pendingGauge(reg); n != 1 {
		t.Fatalf("pending gauge = %d after the notice, want 1", n)
	}

	if err := anl.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if n := pendingGauge(reg); n != 0 {
		t.Errorf("pending gauge = %d, want 0", n)
	}
	if p := anl.Pending(); len(p) != 0 {
		t.Errorf("Pending after the Get = %v, want none", p)
	}
}

// TestPendingKeepsFailedGet: a direct Get that fails leaves its intent
// journaled, so the pull is pending at once, as it is after a restart has
// replayed that intent.
func TestPendingKeepsFailedGet(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Durable: true, Metrics: reg})
	const ghost = "lfn://nowhere/ghost"
	if err := anl.Get(ghost); err == nil {
		t.Fatal("Get of an LFN nobody holds succeeded")
	}
	want := []core.FileInfo{{LFN: ghost}}
	for life := 0; ; life++ {
		// The gauge first: it must be current without a Pending call.
		if n := pendingGauge(reg); n != 1 {
			t.Errorf("life %d: pending gauge = %d, want 1", life, n)
		}
		if got := anl.Pending(); !reflect.DeepEqual(got, want) {
			t.Errorf("life %d: Pending = %v, want %v", life, got, want)
		}
		if life == 1 {
			return
		}
		var err error
		if anl, err = g.RestartSite("anl.gov"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStageOfDiskFileJournalsNothing: a served pull of a file already on
// disk never enters staging, and it must cost the producer no journal
// append (an fsync).
func TestStageOfDiskFileJournalsNothing(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Durable: true, Metrics: reg})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	pf := publish(t, g, cern, "f.db", testbed.MakeData(20_000, 2), core.PublishOptions{})

	appends := reg.Counter(journal.MetricsPrefix+"_appends_total", "")
	staged := reg.CounterVec(core.SiteMetricsPrefix+"_stage_requests_total", "", "outcome").WithLabelValues("ok")
	before := appends.Value()
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if n := staged.Value(); n != 0 {
		t.Fatalf("producer served %d stage requests, want 0", n)
	}
	if n := appends.Value() - before; n != 0 {
		t.Errorf("serving the pull appended %d journal records at the producer, want 0", n)
	}
}
