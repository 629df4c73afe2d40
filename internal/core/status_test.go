package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// TestTransferHistoryAndStatus: every transfer leg lands in the history
// and in the site's metrics, and the metrics read the same over the
// Request Manager (what `gdmp status` renders) as in process.
func TestTransferHistoryAndStatus(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Metrics: reg})

	pf1 := publish(t, g, cern, "h1.db", testbed.MakeData(100_000, 90), core.PublishOptions{})
	pf2 := publish(t, g, cern, "h2.db", testbed.MakeData(50_000, 91), core.PublishOptions{})
	if err := anl.Get(pf1.LFN); err != nil {
		t.Fatal(err)
	}
	if err := anl.Get(pf2.LFN); err != nil {
		t.Fatal(err)
	}
	// A failed transfer is recorded too.
	if err := anl.Get("lfn://nowhere/ghost"); err == nil {
		t.Fatal("ghost get should fail")
	}

	hist := anl.TransferHistory()
	if len(hist) != 2 {
		t.Fatalf("history = %d records (catalog-level failures are not transfers)", len(hist))
	}
	var bytes int64
	for _, r := range hist {
		if r.Failed {
			t.Fatalf("unexpected failed record %+v", r)
		}
		if r.RateMbps <= 0 || r.Elapsed <= 0 || r.Attempts < 1 || r.Source == "" {
			t.Fatalf("implausible record %+v", r)
		}
		bytes += r.Bytes
	}
	if bytes != 150_000 {
		t.Fatalf("history bytes = %d", bytes)
	}

	admitted := reg.CounterVec("gdmp_admission_admitted_total", "", "class").WithLabelValues("control")
	want := map[string]int64{
		core.SiteMetricsPrefix + "_local_files":                      2,
		core.SiteMetricsPrefix + `_transfers_total{outcome="ok"}`:    2,
		core.SiteMetricsPrefix + `_transfers_total{outcome="error"}`: -1, // no failed leg: series absent
		core.SiteMetricsPrefix + "_transfer_bytes_total":             150_000,
		// The metrics RPC itself passes admission control, so the remote
		// text counts exactly one more admitted request than now.
		`gdmp_admission_admitted_total{class="control"}`: admitted.Value() + 1,
	}
	if got := reg.Gauge(core.SiteMetricsPrefix+"_local_files", "").Value(); got != 2 {
		t.Fatalf("local files gauge = %d, want 2", got)
	}

	remote, err := cern.RemoteMetrics(anl.Addr())
	if err != nil {
		t.Fatalf("RemoteMetrics: %v", err)
	}
	for series, v := range want {
		if got := seriesValue(remote, series); got != v {
			t.Errorf("remote %s = %d, want %d", series, got, v)
		}
	}
}

// seriesValue reads one series from exposition text, -1 when it is absent.
func seriesValue(text, series string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v int64
			if _, err := fmt.Sscan(rest, &v); err == nil {
				return v
			}
		}
	}
	return -1
}

func TestFailedTransferRecorded(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Metrics: reg})
	pf := publish(t, g, cern, "doomed.db", testbed.MakeData(10_000, 92), core.PublishOptions{})
	// The bytes vanish at the source (no MSS to restore them), so the
	// transfer itself fails after the catalog lookup succeeded.
	if err := os.Remove(filepath.Join(cern.DataDir(), "doomed.db")); err != nil {
		t.Fatal(err)
	}
	if err := anl.Get(pf.LFN); err == nil {
		t.Fatal("transfer of vanished file should fail")
	}
	hist := anl.TransferHistory()
	if len(hist) != 1 || !hist[0].Failed || hist[0].Error == "" {
		t.Fatalf("history = %+v", hist)
	}
	if hist[0].Attempts != 0 && hist[0].Attempts < 1 {
		t.Fatalf("record = %+v", hist[0])
	}
	if failed, ok := transfers(reg, "error"), transfers(reg, "ok"); failed != 1 || ok != 0 {
		t.Fatalf("transfer legs counted: %d failed + %d ok, want 1 failed", failed, ok)
	}
}

func TestAutoTunedDataMover(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{AutoTuneBuffers: true, Metrics: reg})
	pf1 := publish(t, g, cern, "t1.db", testbed.MakeData(700_000, 110), core.PublishOptions{})
	pf2 := publish(t, g, cern, "t2.db", testbed.MakeData(700_000, 111), core.PublishOptions{})
	// First fetch triggers the negotiation; the second uses the cached
	// buffer. Both must land intact.
	if err := anl.Get(pf1.LFN); err != nil {
		t.Fatalf("first auto-tuned get: %v", err)
	}
	if err := anl.Get(pf2.LFN); err != nil {
		t.Fatalf("second auto-tuned get: %v", err)
	}
	if ok := transfers(reg, "ok"); ok != 2 {
		t.Fatalf("transfer legs counted ok = %d, want 2", ok)
	}
}

func TestWaitForFileTimesOut(t *testing.T) {
	g := newGrid(t)
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	start := time.Now()
	err := anl.WaitForFile("lfn://never/arrives", 50*time.Millisecond)
	if err == nil {
		t.Fatal("WaitForFile returned without the file")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}
