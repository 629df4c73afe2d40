package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// TestPeriodicScrubPassIsShed: while admission refuses background work the
// periodic pass verifies nothing and does not count itself complete, and
// the pass an operator asks for runs regardless.
func TestPeriodicScrubPassIsShed(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Metrics: reg})
	publish(t, g, cern, "s1.db", testbed.MakeData(4_000, 1), core.PublishOptions{})
	publish(t, g, cern, "s2.db", testbed.MakeData(4_000, 2), core.PublishOptions{})
	ctx := context.Background()
	passes := func() int64 { return reg.Counter("gdmp_scrub_passes_total", "").Value() }

	if rep, err := cern.PeriodicScrubPass(ctx); err != nil || rep.Scanned != 2 || passes() != 1 {
		t.Fatalf("periodic pass = %+v, %v, %d passes counted; want 2 files scanned, 1 pass", rep, err, passes())
	}
	cern.ShedBackground()
	if rep, err := cern.PeriodicScrubPass(ctx); err != nil || rep.Scanned != 0 || passes() != 1 {
		t.Fatalf("shed periodic pass = %+v, %v, %d passes counted; want nothing scanned or counted", rep, err, passes())
	}
	if rep, err := cern.ScrubPass(ctx); err != nil || rep.Scanned != 2 || passes() != 2 {
		t.Fatalf("on-demand pass = %+v, %v, %d passes counted; want 2 files scanned, 2 passes", rep, err, passes())
	}
}

// TestFsckScansEveryEntry: an operator's fsck scans the whole catalog
// however the periodic passes beside it end. Background passes are cut
// short mid-scan over and over — a pass whose context ends leaves its
// journaled cursor behind exactly as one that brownout sheds does — and
// every Fsck must still start from the first entry, not resume from a
// cursor some pass left in between.
func TestFsckScansEveryEntry(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	const files = 12
	for i := 0; i < files; i++ {
		publish(t, g, cern, fmt.Sprintf("fsck/f%02d.db", i), testbed.MakeData(4_000, int64(i)), core.PublishOptions{})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%8)*250*time.Microsecond)
			cern.PeriodicScrubPass(ctx)
			cancel()
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 20; i++ {
		rep, err := cern.Fsck(context.Background())
		if err != nil || rep.Scanned != files || rep.Resumed {
			t.Fatalf("fsck %d = %+v, %v; want all %d entries scanned from the start", i, rep, err, files)
		}
	}
}

// TestRepairCoalesces: a replica a scrub pass finds missing, and an
// anti-entropy round finds missing again before its repair has run, is
// repaired by one pull, counted once.
func TestRepairCoalesces(t *testing.T) {
	g := newGrid(t)
	ctx := context.Background()
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Metrics: reg, PullWorkers: 1})
	pf := publish(t, g, cern, "r.db", testbed.MakeData(4_000, 1), core.PublishOptions{})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if err := anl.SubscribeTo(cern.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(anl.DataDir(), "r.db")); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return reg.Counter(name, "").Value() }
	pulls := func() int64 {
		return reg.CounterVec(core.SiteMetricsPrefix+"_replications_total", "", "outcome").WithLabelValues("ok").Value()
	}

	release := anl.HoldPullWorker()
	if rep, err := anl.ScrubPass(ctx); err != nil || rep.Missing != 1 || rep.Repairs != 1 {
		t.Fatalf("scrub pass = %+v, %v; want 1 missing, 1 repair queued", rep, err)
	}
	if ae, err := anl.AntiEntropyPass(ctx); err != nil || ae.Missing != 1 || ae.Repairs != 0 {
		t.Fatalf("anti-entropy round = %+v, %v; want 1 missing, its repair coalesced", ae, err)
	}
	if depth := reg.Gauge("gdmp_repair_queue_depth", "").Value(); depth != 1 {
		t.Fatalf("repair queue depth = %d while held, want 1", depth)
	}
	release()
	if err := anl.RepairQuiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if !anl.HasFile(pf.LFN) {
		t.Fatal("repair did not bring the replica back")
	}
	if got := pulls(); got != 2 {
		t.Fatalf("%d successful pulls, want 2 (the first Get and one repair)", got)
	}
	for name, want := range map[string]int64{
		"gdmp_repair_attempts_total": 1,
		"gdmp_repair_success_total":  1,
		"gdmp_repair_failure_total":  0,
	} {
		if got := counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if depth := reg.Gauge("gdmp_repair_queue_depth", "").Value(); depth != 0 {
		t.Errorf("repair queue depth = %d after quiesce, want 0", depth)
	}
}

// TestCloseWithRepairOutstanding: a site that shuts down with a repair
// still queued reaches no verdict on it — neither success nor failure.
func TestCloseWithRepairOutstanding(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Metrics: reg, PullWorkers: 1})
	pf := publish(t, g, cern, "r.db", testbed.MakeData(4_000, 1), core.PublishOptions{})

	anl.HoldPullWorker()
	if !anl.Repair(pf.LFN) {
		t.Fatal("first repair of the file coalesced")
	}
	if err := anl.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"gdmp_repair_attempts_total": 1,
		"gdmp_repair_success_total":  0,
		"gdmp_repair_failure_total":  0,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d after Close, want %d", name, got, want)
		}
	}
}

// TestPeriodicLoopDisabled: a pass with a zero interval never runs, while
// a pass with an interval on the same site ticks.
func TestPeriodicLoopDisabled(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	addSite(t, g, "cern.ch", testbed.SiteOptions{Metrics: reg, AntiEntropyInterval: 5 * time.Millisecond})
	rounds := func() int64 { return reg.Counter("gdmp_antientropy_rounds_total", "").Value() }
	passes := func() int64 { return reg.Counter("gdmp_scrub_passes_total", "").Value() }

	waitFor(t, func() bool { return rounds() >= 2 }, "two anti-entropy rounds")
	if n := passes(); n != 0 {
		t.Fatalf("%d scrub passes with a zero scrub interval, want 0", n)
	}
}

// TestPeriodicLoopTicksAndStops: a pass with an interval ticks, and Close
// stops it.
func TestPeriodicLoopTicksAndStops(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Metrics: reg, AntiEntropyInterval: 5 * time.Millisecond})
	rounds := func() int64 { return reg.Counter("gdmp_antientropy_rounds_total", "").Value() }

	waitFor(t, func() bool { return rounds() >= 2 }, "two anti-entropy rounds")
	if err := cern.Close(); err != nil {
		t.Fatal(err)
	}
	n := rounds()
	time.Sleep(50 * time.Millisecond)
	if got := rounds(); got != n {
		t.Fatalf("anti-entropy rounds went %d -> %d after Close", n, got)
	}
}

// TestDanglingLocationVeto pins anti-entropy's point query: a location at
// a peer whose digest lacks the file is withdrawn only once the peer's own
// catalog confirms it lacks the file too. The digest is taken before the
// landing, as one a pull overtakes in flight would be.
func TestDanglingLocationVeto(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		landed  bool // the peer's catalog holds the file by the time of the exchange
		dangles int
	}{
		{"the peer's catalog holds the file, so the location stays", true, 0},
		{"the peer's catalog lacks the file, so the location is withdrawn", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGrid(t)
			cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
			anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
			pf := publish(t, g, cern, "runs/veto.db", testbed.MakeData(2_000, 50), core.PublishOptions{})
			atPeer := "gridftp://" + anl.DataAddr() + "/" + pf.PFN.Path
			if tc.landed {
				if err := anl.Get(pf.LFN); err != nil {
					t.Fatal(err)
				}
			} else if err := g.Catalog.AddReplica(pf.LFN, atPeer); err != nil {
				t.Fatal(err)
			}

			rep := cern.ExchangeWith(ctx, anl.Addr(), anl.DataAddr(), nil)
			if rep.Dangling != tc.dangles {
				t.Fatalf("%d dangling locations withdrawn, want %d", rep.Dangling, tc.dangles)
			}
			locs, err := g.Catalog.Locations(pf.LFN)
			if err != nil {
				t.Fatal(err)
			}
			listed := false
			for _, l := range locs {
				listed = listed || l == atPeer
			}
			if listed != tc.landed {
				t.Fatalf("locations = %v; location at the peer listed = %v, want %v", locs, listed, tc.landed)
			}
		})
	}
}
