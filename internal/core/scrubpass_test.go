package core_test

import (
	"context"
	"testing"

	"gdmp/internal/core"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// TestPeriodicScrubPassIsShed: while admission refuses background work the
// daemon's pass verifies nothing and does not count itself complete, and
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
