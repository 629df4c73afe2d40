// Partition chaos harness: a seeded asymmetric network partition wedges
// the primary replica source mid-stream, and every pull must still
// complete from the secondary — the stall watchdog hedges to it, the
// cross-source resume reuses the CRC-verified .part prefix without
// re-downloading a byte, the primary's circuit breaker opens and sheds
// all load until its decorrelated reopen probe, and the probe (carried by
// live traffic) closes it again. Breaker transitions, hedge outcomes, and
// wasted bytes are all asserted exactly.
//
// The run logs its seed; set PARTITION_SEED to replay one.
package gdmp_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/health"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// partitionSeed returns the run's seed (overridable with PARTITION_SEED)
// and logs it so a failure replays exactly. The seed drives the fault
// injector and the breaker's decorrelated reopen jitter.
func partitionSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260809)
	if s := os.Getenv("PARTITION_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("PARTITION_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("partition seed: %d (set PARTITION_SEED to replay)", seed)
	return seed
}

// TestPartitionHedgedPullsSurvive is the acceptance scenario. Topology:
// two producers holding the same five files, one consumer. Mid-way
// through the consumer's first pull, an asymmetric partition black-holes
// the byte stream from the primary source (dials still succeed, writes
// still flow — only reads stall, the nastiest WAN failure mode). The
// consumer must:
//
//  1. hedge the stalled pull to the secondary and finish it there,
//     resuming the verified .part prefix with zero re-downloaded bytes;
//  2. open the primary's breaker (threshold 1) and route every further
//     pull straight to the secondary with no new dials to the dead peer;
//  3. after the partition heals and the reopen delay passes, send the
//     next pull to the primary as the reopen probe and close the breaker.
func TestPartitionHedgedPullsSurvive(t *testing.T) {
	seed := partitionSeed(t)
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Two producers; both end up holding every file, giving the consumer
	// a primary and a hedge target.
	p1, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g.AddSite("fnal.gov", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p1FTP, p2FTP := p1.DataAddr(), p2.DataAddr()
	p1Ctl, p2Ctl := p1.Addr(), p2.Addr()

	const nFiles = 5
	const fileSize = 256 << 10
	var pfs [nFiles]core.PublishedFile
	var payload [nFiles][]byte
	for i := 0; i < nFiles; i++ {
		payload[i] = testbed.MakeData(fileSize, int64(50+i))
		pfs[i] = publishData(t, g, p1, fmt.Sprintf("part/f%d.db", i), payload[i])
		if err := p2.Get(pfs[i].LFN); err != nil {
			t.Fatalf("seed replica %d to secondary: %v", i, err)
		}
	}

	// The consumer's injector: control channels and the secondary run
	// clean; dials to both GridFTP endpoints are tallied (the primary's are
	// the shed-load proof, the secondary's the hedge's session count); and
	// while the partition is up, the first passive-mode data connection
	// black-holes its reads after 160 KiB — enough wire bytes for two
	// complete 64 KiB extended blocks to land in the .part, so the
	// takeover has a verified prefix to resume.
	// Writes are untouched — the partition is asymmetric.
	var partitionOn atomic.Bool
	var mu sync.Mutex
	dataConns, p1Dials, p2Dials := 0, 0, 0
	consReg := obs.NewRegistry()
	consFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		mu.Lock()
		defer mu.Unlock()
		switch c.Addr {
		case g.CatalogAddr, p1Ctl, p2Ctl:
			return faults.Plan{}
		case p1FTP:
			p1Dials++
			return faults.Plan{}
		case p2FTP:
			p2Dials++
			return faults.Plan{}
		}
		// Any other address is a passive-mode data connection.
		if partitionOn.Load() {
			dataConns++
			if dataConns == 1 {
				return faults.Partition(160 << 10)
			}
		}
		return faults.Plan{}
	}, faults.WithMetrics(consReg))

	const reopenBase = 2 * time.Second
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics:     consReg,
		Faults:      consFaults,
		Retry:       fastRetry(3),
		Parallelism: 1,
		PullWorkers: 1,
		// The catalog reports replica locations in no particular order;
		// pin the selector to the primary so the partition script
		// deterministically wedges cern.ch and hedges to fnal.gov.
		Select: func(_ string, cands []core.PFN) core.PFN {
			for _, c := range cands {
				if c.Addr == p1FTP {
					return c
				}
			}
			return cands[0]
		},
		// One stall opens the breaker; the reopen delay is long enough
		// that the shed-load phase cannot race a probe, and HedgeMin
		// keeps healthy loopback pulls from ever stalling spuriously.
		Health: health.Config{
			FailureThreshold: 1,
			ReopenBase:       reopenBase,
			ReopenMax:        8 * time.Second,
			HedgeMin:         time.Second,
			Seed:             seed,
		},
		// Cold-start stall deadline: the partitioned first pull has no
		// scoreboard history yet, so this is the fuse that fires.
		HedgeDeadline: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// --- Phase 1: partition the primary mid-stream on the first pull. ---
	partitionOn.Store(true)
	if err := cons.Get(pfs[0].LFN); err != nil {
		t.Fatalf("partitioned pull must complete from the secondary: %v", err)
	}
	breakerOpenedAt := time.Now()

	mu.Lock()
	dialsAfterFirst, hedgeDials := p1Dials, p2Dials
	mu.Unlock()
	if dialsAfterFirst != 1 {
		t.Fatalf("primary FTP dials after first pull = %d, want 1", dialsAfterFirst)
	}
	// The hedge dials its target twice: the warm-up's reachability check,
	// then the takeover's one session, which judges the prefix, moves the
	// rest and verifies the landed file.
	if hedgeDials != 2 {
		t.Fatalf("secondary FTP dials during the hedged pull = %d, want 2 (prep + takeover)", hedgeDials)
	}
	if n := consFaults.Injected(faults.KindPartition); n != 1 {
		t.Fatalf("injected partitions = %d, want 1", n)
	}

	// --- Phase 2: further pulls shed the dead primary entirely. ---
	for i := 1; i < nFiles-1; i++ {
		if err := cons.Get(pfs[i].LFN); err != nil {
			t.Fatalf("pull %d during partition: %v", i, err)
		}
	}
	mu.Lock()
	dialsDuringShed := p1Dials
	mu.Unlock()
	if dialsDuringShed != dialsAfterFirst {
		t.Fatalf("open breaker leaked %d new dials to the dead primary",
			dialsDuringShed-dialsAfterFirst)
	}

	// Mid-run accounting: one hedge started, won by the hedge leg, with
	// zero wasted bytes — the takeover resumed every CRC-verified byte
	// the stalled primary had landed.
	text := consReg.Text()
	for series, want := range map[string]float64{
		`gdmp_xfer_hedge_started_total`:                                        1,
		`gdmp_xfer_hedge_wins_total{winner="hedge"}`:                           1,
		`gdmp_xfer_hedge_wasted_bytes_total`:                                   0,
		`gdmp_gridftp_client_resumes_total`:                                    1,
		`gdmp_gridftp_client_resume_rejected_total`:                            0,
		`gdmp_faults_injected_total{kind="partition"}`:                         1,
		fmt.Sprintf(`gdmp_health_transitions_total{peer=%q,to="open"}`, p1FTP): 1,
		fmt.Sprintf(`gdmp_health_stalls_total{peer=%q}`, p1FTP):                1,
		// -1 = series absent: no reopen probe has run yet, so the
		// half-open child of the transitions vector does not exist.
		fmt.Sprintf(`gdmp_health_transitions_total{peer=%q,to="half_open"}`, p1FTP): -1,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got := metricValue(text, `gdmp_gridftp_client_resumed_bytes_total`); got <= 0 {
		t.Errorf("resumed bytes = %v, want > 0 (the prefix must be reused)", got)
	}

	// --- Phase 3: heal, wait out the reopen delay, probe, close. ---
	partitionOn.Store(false)
	// The first open uses exactly ReopenBase (decorrelated jitter starts
	// on the second open), so the probe window is deterministic.
	time.Sleep(time.Until(breakerOpenedAt.Add(reopenBase + 300*time.Millisecond)))
	if err := cons.Get(pfs[nFiles-1].LFN); err != nil {
		t.Fatalf("probe pull after heal: %v", err)
	}
	mu.Lock()
	dialsAfterProbe := p1Dials
	mu.Unlock()
	// A successful pull dials its source once: the transfer and the
	// end-to-end checksum of the landed file share that session.
	if dialsAfterProbe != dialsAfterFirst+1 {
		t.Fatalf("probe phase dialed primary %d times, want exactly 1 (transfer + verify on one session)",
			dialsAfterProbe-dialsAfterFirst)
	}

	// Every file landed intact.
	for i := 0; i < nFiles; i++ {
		got, err := os.ReadFile(filepath.Join(cons.DataDir(), "part", fmt.Sprintf("f%d.db", i)))
		if err != nil || !bytes.Equal(got, payload[i]) {
			t.Fatalf("file %d content mismatch after partition: %v", i, err)
		}
	}

	// Final exact accounting: one full open → half-open → closed breaker
	// cycle for the primary, not a single transition for the secondary,
	// and one successful probe.
	text = consReg.Text()
	for series, want := range map[string]float64{
		fmt.Sprintf(`gdmp_health_transitions_total{peer=%q,to="open"}`, p1FTP):      1,
		fmt.Sprintf(`gdmp_health_transitions_total{peer=%q,to="half_open"}`, p1FTP): 1,
		fmt.Sprintf(`gdmp_health_transitions_total{peer=%q,to="closed"}`, p1FTP):    1,
		fmt.Sprintf(`gdmp_health_probes_total{peer=%q,outcome="ok"}`, p1FTP):        1,
		fmt.Sprintf(`gdmp_health_state{peer=%q}`, p1FTP):                            0,
		// -1 = series absent: the secondary's breaker never transitioned.
		fmt.Sprintf(`gdmp_health_transitions_total{peer=%q,to="open"}`, p2FTP): -1,
		`gdmp_xfer_hedge_started_total`:                                        1,
		`gdmp_xfer_hedge_wins_total{winner="hedge"}`:                           1,
		`gdmp_xfer_hedge_wasted_bytes_total`:                                   0,
		`gdmp_site_replications_total{outcome="ok"}`:                           nFiles,
		`gdmp_retry_ops_total{op="core.replicate",outcome="ok"}`:               nFiles,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// The scoreboard rows `gdmp status` renders: the healed primary shows
	// a closed breaker with its transition stamped, and the secondary
	// shows the bandwidth EWMA that made it the ranked hedge target.
	series := func(family, peer string) float64 {
		return metricValue(text, fmt.Sprintf(`%s{peer=%q}`, family, peer))
	}
	if st, fails, since := series("gdmp_health_state", p1FTP), series("gdmp_health_consecutive_failures", p1FTP),
		series("gdmp_health_last_transition_seconds", p1FTP); st != 0 || fails != 0 || since <= 0 {
		t.Errorf("primary row: state %v, %v consecutive failures, last transition %v; want closed/0 fails/transition stamped", st, fails, since)
	}
	if st, kbps := series("gdmp_health_state", p2FTP), series("gdmp_health_ewma_bandwidth_kbps", p2FTP); st != 0 || kbps <= 0 {
		t.Errorf("secondary row: state %v, %v Kbps; want closed with bandwidth", st, kbps)
	}
}
