// Crash/restart chaos tests: sites are killed abruptly (journal severed,
// no graceful teardown — the in-process equivalent of SIGKILL) at
// randomized points of the publish/notify/pull pipeline and restarted on
// the same state and data directories. Durability contract under test:
//
//   - no published notification is lost — every file reaches every
//     subscriber across any number of consumer or producer crashes;
//   - every unfinished pull is requeued on restart;
//   - no partial or corrupt file survives recovery unquarantined;
//   - an interrupted transfer resumes from its verified partial instead
//     of starting over, visible in gdmp_gridftp_client_resumes_total /
//     _resumed_bytes_total and the gdmp_recovery_* gauges.
//
// Every test logs its seed; set CRASH_SEED to replay a run.
package gdmp_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/gridftp"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// crashSeed returns the run's randomization seed (overridable with
// CRASH_SEED) and logs it so a failure replays exactly.
func crashSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("CRASH_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CRASH_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("crash seed: %d (set CRASH_SEED to replay)", seed)
	return seed
}

// crashDir returns the grid's base directory. Normally a test temp dir;
// with CRASH_ARTIFACT_DIR set (CI), a per-test directory that survives a
// failure so the journals, quarantine, and staging files can be uploaded
// as artifacts and inspected.
func crashDir(t *testing.T) string {
	t.Helper()
	base := os.Getenv("CRASH_ARTIFACT_DIR")
	if base == "" {
		return t.TempDir()
	}
	dir := filepath.Join(base, t.Name())
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// partFiles lists every staging file under dir.
func partFiles(t *testing.T, dir string) []string {
	t.Helper()
	var parts []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), gridftp.PartSuffix) {
			parts = append(parts, path)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	return parts
}

// TestCrashRestartChaosLoop is the acceptance scenario: twenty iterations
// of publish → kill the consumer at a randomized point → restart it on
// the same directories. Two in three iterations arm a mid-stream reset at
// a randomized offset so the consumer dies holding a partial download;
// the rest kill it at a random instant of the pipeline. After every
// restart the replica must converge, and the resume counters must account
// for every statted partial byte exactly.
func TestCrashRestartChaosLoop(t *testing.T) {
	seed := crashSeed(t)
	rng := rand.New(rand.NewSource(seed))
	g, err := testbed.NewGrid(crashDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prodReg, consReg := obs.NewRegistry(), obs.NewRegistry()
	// The consumer flaps by design: deliveries must keep being retried
	// through every crash window, so the suspect threshold is out of reach.
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Metrics:                prodReg,
		Retry:                  fastRetry(1),
		NotifyFailureThreshold: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	prodCtl, prodFTP := prod.Addr(), prod.DataAddr()

	// cut, when armed, resets the next passive-mode data connection after
	// that many wire bytes, then disarms itself; control and catalog
	// connections always run clean.
	var cut atomic.Int64
	consFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		switch c.Addr {
		case g.CatalogAddr, prodCtl, prodFTP:
			return faults.Plan{}
		}
		if n := cut.Swap(0); n > 0 {
			return faults.Plan{ResetAfterBytes: n}
		}
		return faults.Plan{}
	}, faults.WithMetrics(consReg))

	// A single attempt per transfer and per retry op: the armed reset must
	// fail the pull outright (leaving the .part staged), not be absorbed
	// by an in-process restart before the kill lands.
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Durable:          true,
		AutoReplicate:    true,
		Metrics:          consReg,
		Faults:           consFaults,
		Retry:            fastRetry(1),
		TransferAttempts: 1,
		Parallelism:      1, // interrupted .part files stay contiguous prefixes
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.SubscribeTo(prodCtl); err != nil {
		t.Fatal(err)
	}

	const iterations = 20
	const size = 300_000
	var wantResumes, wantResumedBytes int64
	var lastRequeued int
	published := make([]core.PublishedFile, 0, iterations)
	contents := make(map[string][]byte, iterations)

	for i := 0; i < iterations; i++ {
		rel := fmt.Sprintf("crash/f%02d.db", i)
		data := testbed.MakeData(size, seed+int64(i))
		midCut := i%3 != 2
		if midCut {
			cut.Store(int64(size/4) + rng.Int63n(size/2))
		}
		pf := publishData(t, g, prod, rel, data)
		published = append(published, pf)
		contents[rel] = data

		destPath := filepath.Join(cons.DataDir(), filepath.FromSlash(rel))
		partPath := destPath + gridftp.PartSuffix
		if midCut {
			// The reset fails the only transfer attempt; the failed pull
			// stays pending, its intent journaled and its partial staged.
			waitUntil(t, 15*time.Second, "failed pull staging a partial", func() bool {
				if _, err := os.Stat(partPath); err != nil {
					return false
				}
				for _, fi := range cons.Pending() {
					if fi.LFN == pf.LFN {
						return true
					}
				}
				return false
			})
		} else {
			// Kill at a random instant: before the notice lands, mid
			// transfer, or after convergence — all must be survivable.
			time.Sleep(time.Duration(rng.Int63n(int64(25 * time.Millisecond))))
		}

		cons.Kill()
		var partSize int64
		if st, err := os.Stat(partPath); err == nil {
			partSize = st.Size()
		}
		if partSize > 0 {
			wantResumes++
			wantResumedBytes += partSize
		}

		cons, err = g.RestartSite("anl.gov")
		if err != nil {
			t.Fatalf("iteration %d: restart: %v", i, err)
		}
		rec := cons.Recovery()
		if midCut && rec.PullsRequeued < 1 {
			t.Fatalf("iteration %d: unfinished pull not requeued: %+v", i, rec)
		}
		if partSize > 0 && rec.PartsResumed != 1 {
			t.Fatalf("iteration %d: %d-byte partial not kept for resumption: %+v", i, partSize, rec)
		}
		lastRequeued = rec.PullsRequeued

		waitUntil(t, 20*time.Second, fmt.Sprintf("iteration %d replica convergence", i), func() bool {
			return cons.HasFile(pf.LFN)
		})
		got, err := os.ReadFile(destPath)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("iteration %d: replicated content wrong: %v", i, err)
		}
		if parts := partFiles(t, cons.DataDir()); len(parts) != 0 {
			t.Fatalf("iteration %d: unquarantined partials after convergence: %v", i, parts)
		}
	}

	// Zero lost notifications: every publication of the run is present.
	for _, pf := range published {
		if !cons.HasFile(pf.LFN) {
			t.Errorf("published file %s lost across restarts", pf.LFN)
		}
	}
	for rel, want := range contents {
		got, err := os.ReadFile(filepath.Join(cons.DataDir(), filepath.FromSlash(rel)))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("content mismatch for %s after the run: %v", rel, err)
		}
	}

	// Exact resume accounting: every partial statted at a kill was resumed
	// from its full length — transfers demonstrably continued from a
	// non-zero offset instead of restarting.
	if wantResumes < iterations/3 {
		t.Fatalf("only %d kills left a partial; the schedule did not exercise resumption", wantResumes)
	}
	text := consReg.Text()
	for series, want := range map[string]float64{
		"gdmp_gridftp_client_resumes_total":         float64(wantResumes),
		"gdmp_gridftp_client_resumed_bytes_total":   float64(wantResumedBytes),
		"gdmp_gridftp_client_resume_rejected_total": 0,
		"gdmp_recovery_pulls_requeued":              float64(lastRequeued),
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	t.Logf("resumed %d transfers, %d bytes skipped", wantResumes, wantResumedBytes)
}

// TestCrashRestartProducerNotificationDurability kills the producer while
// it holds undelivered notifications: the subscriber registry and its
// queues must come back from the journal, and delivery must complete once
// the subscriber is reachable — no publication lost to the crash.
func TestCrashRestartProducerNotificationDurability(t *testing.T) {
	seed := crashSeed(t)
	g, err := testbed.NewGrid(crashDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prodReg, consReg := obs.NewRegistry(), obs.NewRegistry()
	var consCtl addrBox
	var down atomic.Bool
	prodFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		if down.Load() && c.Addr == consCtl.get() {
			return faults.Plan{RefuseDial: true}
		}
		return faults.Plan{}
	}, faults.WithMetrics(prodReg))

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Durable:                true,
		Metrics:                prodReg,
		Faults:                 prodFaults,
		Retry:                  fastRetry(1),
		NotifyFailureThreshold: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics: consReg,
		Retry:   fastRetry(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.SubscribeTo(prod.Addr()); err != nil {
		t.Fatal(err)
	}
	consCtl.set(cons.Addr())

	// Three publications pile up undelivered while the subscriber is dark.
	down.Store(true)
	files := make([]core.PublishedFile, 3)
	data := make([][]byte, 3)
	for i := range files {
		data[i] = testbed.MakeData(80_000, seed+int64(i))
		files[i] = publishData(t, g, prod, fmt.Sprintf("dur/f%d.db", i), data[i])
	}
	waitUntil(t, 10*time.Second, "undelivered queue to build", func() bool {
		return metricValue(prodReg.Text(), "gdmp_site_notify_queue_depth") == 3
	})

	// SIGKILL-equivalent crash with the queue loaded, then restart on the
	// same directories and addresses.
	prod, err = g.RestartSite("cern.ch")
	if err != nil {
		t.Fatal(err)
	}
	rec := prod.Recovery()
	if rec.SubscribersRestored != 1 {
		t.Fatalf("SubscribersRestored = %d, want 1", rec.SubscribersRestored)
	}
	if rec.NoticesRequeued != 3 {
		t.Fatalf("NoticesRequeued = %d, want 3", rec.NoticesRequeued)
	}
	if rec.FilesRestored != 3 {
		t.Fatalf("FilesRestored = %d, want 3", rec.FilesRestored)
	}
	if got := metricValue(prodReg.Text(), "gdmp_recovery_notices_requeued"); got != 3 {
		t.Fatalf("gdmp_recovery_notices_requeued = %v, want 3", got)
	}

	// The subscriber heals; the reborn producer delivers every queued
	// notice and the consumer converges on all three files.
	down.Store(false)
	waitUntil(t, 15*time.Second, "redelivery after restart", func() bool {
		return len(cons.Pending()) == 3
	})
	if n, err := cons.ProcessPending(); err != nil || n != 3 {
		t.Fatalf("ProcessPending = %d, %v", n, err)
	}
	for i, pf := range files {
		if !cons.HasFile(pf.LFN) {
			t.Fatalf("file %s lost across producer crash", pf.LFN)
		}
		got, err := os.ReadFile(filepath.Join(cons.DataDir(), "dur", fmt.Sprintf("f%d.db", i)))
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Fatalf("content mismatch for %s: %v", pf.LFN, err)
		}
	}
	waitUntil(t, 10*time.Second, "queue drain", func() bool {
		return metricValue(prodReg.Text(), "gdmp_site_notify_queue_depth") == 0
	})
}

// TestCrashRestartQuarantine seeds a recovering site with every kind of
// damage reconcileDataDir must handle: a catalog entry whose bytes were
// truncated behind its back, a catalog entry whose bytes vanished, and an
// orphaned staging file no pull claims. The restart must quarantine the
// corrupt and orphaned bytes, drop the missing entry, and keep the
// healthy file — with the gdmp_recovery_* gauges accounting for each.
func TestCrashRestartQuarantine(t *testing.T) {
	crashSeed(t)
	g, err := testbed.NewGrid(crashDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	reg := obs.NewRegistry()
	site, err := g.AddSite("cern.ch", testbed.SiteOptions{Durable: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	healthy := publishData(t, g, site, "q/ok.db", testbed.MakeData(50_000, 1))
	truncated := publishData(t, g, site, "q/trunc.db", testbed.MakeData(50_000, 2))
	missing := publishData(t, g, site, "q/gone.db", testbed.MakeData(50_000, 3))

	// Damage behind the journal's back.
	if err := os.Truncate(filepath.Join(site.DataDir(), "q", "trunc.db"), 10_000); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(site.DataDir(), "q", "gone.db")); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(site.DataDir(), "q", "stray.db"+gridftp.PartSuffix)
	if err := os.WriteFile(orphan, testbed.MakeData(12_345, 4), 0o644); err != nil {
		t.Fatal(err)
	}

	site, err = g.RestartSite("cern.ch")
	if err != nil {
		t.Fatal(err)
	}
	rec := site.Recovery()
	if rec.FilesRestored != 3 {
		t.Errorf("FilesRestored = %d, want 3", rec.FilesRestored)
	}
	if rec.Quarantined != 2 {
		t.Errorf("Quarantined = %d, want 2 (truncated file + orphan .part)", rec.Quarantined)
	}
	if rec.MissingFiles != 1 {
		t.Errorf("MissingFiles = %d, want 1", rec.MissingFiles)
	}
	if !site.HasFile(healthy.LFN) {
		t.Error("healthy file lost by recovery")
	}
	if site.HasFile(truncated.LFN) || site.HasFile(missing.LFN) {
		t.Error("damaged entries still in the local catalog")
	}
	if parts := partFiles(t, site.DataDir()); len(parts) != 0 {
		t.Errorf("orphaned staging files left in the pool: %v", parts)
	}
	qdir := filepath.Join(filepath.Dir(site.DataDir()), "state", "quarantine")
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("quarantine dir = %v entries, %v; want 2", len(entries), err)
	}
	text := reg.Text()
	for series, want := range map[string]float64{
		"gdmp_recovery_quarantined":    2,
		"gdmp_recovery_missing_files":  1,
		"gdmp_recovery_files_restored": 3,
	} {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}
