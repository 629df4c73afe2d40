// Integration tests for the pull scheduler (internal/xfer) wired into
// core.Site: concurrent Gets of one LFN coalesce onto a single transfer
// whose real outcome fans out to every waiter, Recover reconciles past
// individual failures, and a canceled context aborts an in-flight
// transfer promptly instead of letting it run to completion.
package gdmp_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"strings"

	"gdmp/internal/faults"
	"gdmp/internal/obs"
	"gdmp/internal/retry"
	"gdmp/internal/testbed"
)

// TestConcurrentGetsCoalesce pins the in-flight dedup contract at the
// site level: N concurrent Gets of the same LFN must run exactly one
// replication, and every caller must see it succeed.
func TestConcurrentGetsCoalesce(t *testing.T) {
	seed := chaosSeed(t)
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Slow the consumer's reads from the producer so the first Get is
	// still mid-replication while the other callers arrive.
	consReg := obs.NewRegistry()
	consFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		if c.Addr == g.CatalogAddr {
			return faults.Plan{}
		}
		return faults.Plan{Latency: 20 * time.Millisecond}
	}, faults.WithMetrics(consReg))
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics: consReg,
		Faults:  consFaults,
	})
	if err != nil {
		t.Fatal(err)
	}

	data := testbed.MakeData(200_000, 11)
	pf := publishData(t, g, prod, "dedup/hot.db", data)

	const callers = 6
	start := make(chan struct{})
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = cons.Get(pf.LFN)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: Get = %v", i, err)
		}
	}
	if !cons.HasFile(pf.LFN) {
		t.Fatal("file missing after Get")
	}
	text := consReg.Text()
	if got := metricValue(text, `gdmp_xfer_jobs_total{outcome="ok"}`); got != 1 {
		t.Errorf("scheduler ran %v jobs, want exactly 1 (dedup)", got)
	}
	if got := metricValue(text, "gdmp_xfer_dedup_total"); got != callers-1 {
		t.Errorf("dedup_total = %v, want %d", got, callers-1)
	}
}

// TestConcurrentGetsShareRealError is the regression test for the lost
// loser's error: when the shared replication fails, every waiter must
// receive the job's actual error — not a generic placeholder invented for
// the callers that merely joined an in-flight transfer.
func TestConcurrentGetsShareRealError(t *testing.T) {
	seed := chaosSeed(t)
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prodCtl := prod.Addr()

	// Delay every stage request so the failing job is still in flight
	// while the other callers submit and coalesce onto it.
	consReg := obs.NewRegistry()
	consFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		if c.Addr == prodCtl {
			return faults.Plan{DialDelay: 150 * time.Millisecond}
		}
		return faults.Plan{}
	}, faults.WithMetrics(consReg))
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics: consReg,
		Faults:  consFaults,
		Retry:   fastRetry(2),
	})
	if err != nil {
		t.Fatal(err)
	}

	pf := publishData(t, g, prod, "dedup/bad.db", testbed.MakeData(50_000, 12))
	// Sabotage the file at its only source: staging fails, and with it
	// every replication attempt.
	if err := os.Remove(filepath.Join(prod.DataDir(), "dedup", "bad.db")); err != nil {
		t.Fatal(err)
	}

	const callers = 6
	start := make(chan struct{})
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = cons.Get(pf.LFN)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: Get succeeded against a sabotaged source", i)
		}
		if err.Error() != errs[0].Error() {
			t.Errorf("caller %d saw %q, caller 0 saw %q: all waiters must share the job's real error",
				i, err, errs[0])
		}
	}
	text := consReg.Text()
	if got := metricValue(text, `gdmp_xfer_jobs_total{outcome="error"}`); got != 1 {
		t.Errorf("scheduler ran %v failing jobs, want exactly 1 (dedup)", got)
	}
	if got := metricValue(text, "gdmp_xfer_dedup_total"); got != callers-1 {
		t.Errorf("dedup_total = %v, want %d", got, callers-1)
	}
}

// TestRecoverContinuesPastFailedFetch pins Recover's new contract: a file
// that cannot be fetched must not abort the reconciliation — the rest of
// the remote catalog is still pulled, the count reflects what actually
// arrived, and the error names the casualty.
func TestRecoverContinuesPastFailedFetch(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Retry: fastRetry(2),
	})
	if err != nil {
		t.Fatal(err)
	}

	a := publishData(t, g, prod, "rc/a.db", testbed.MakeData(60_000, 13))
	bad := publishData(t, g, prod, "rc/bad.db", testbed.MakeData(60_000, 14))
	c := publishData(t, g, prod, "rc/c.db", testbed.MakeData(60_000, 15))
	if err := os.Remove(filepath.Join(prod.DataDir(), "rc", "bad.db")); err != nil {
		t.Fatal(err)
	}

	fetched, err := cons.Recover(prod.Addr())
	if err == nil {
		t.Fatal("Recover succeeded with an unfetchable file")
	}
	if !containsLFN(err, bad.LFN) {
		t.Fatalf("Recover error %v does not name the failed file %s", err, bad.LFN)
	}
	if fetched != 2 {
		t.Fatalf("Recover fetched %d files, want 2 (must continue past the failure)", fetched)
	}
	if !cons.HasFile(a.LFN) || !cons.HasFile(c.LFN) {
		t.Fatal("healthy files missing: Recover aborted early")
	}
	if cons.HasFile(bad.LFN) {
		t.Fatal("unfetchable file reported present")
	}
}

func containsLFN(err error, lfn string) bool {
	return err != nil && len(lfn) > 0 && strings.Contains(err.Error(), lfn)
}

// TestGetCancellationAbortsMidTransfer proves a canceled context severs a
// transfer that is already streaming: the waiter returns promptly (well
// within one retry interval — the base delay of the site's backoff
// policy), the scheduler records the job as canceled, and the partial
// file is not reported as local.
func TestGetCancellationAbortsMidTransfer(t *testing.T) {
	seed := chaosSeed(t)
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prodCtl := prod.Addr()

	// Every read from the producer's GridFTP endpoint crawls, so the
	// 2 MB transfer takes seconds — ample time to cancel it mid-stream.
	consReg := obs.NewRegistry()
	consFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		switch c.Addr {
		case g.CatalogAddr, prodCtl:
			return faults.Plan{}
		}
		return faults.Plan{Latency: 20 * time.Millisecond}
	}, faults.WithMetrics(consReg))
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics:     consReg,
		Faults:      consFaults,
		Parallelism: 1,
		Retry: retry.Policy{
			Attempts:  3,
			BaseDelay: time.Second, // "one retry interval" for the bound below
			MaxDelay:  2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	pf := publishData(t, g, prod, "cancel/big.db", testbed.MakeData(2<<20, 16))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- cons.GetCtx(ctx, pf.LFN) }()

	// The GridFTP control connection and then a data connection each note
	// one latency fault on first read; two means the data channel is live
	// and bytes are moving.
	waitUntil(t, 10*time.Second, "transfer streaming", func() bool {
		return consFaults.Injected(faults.KindLatency) >= 2
	})
	canceledAt := time.Now()
	cancel()

	var getErr error
	select {
	case getErr = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Get still blocked 5s after cancellation")
	}
	if waited := time.Since(canceledAt); waited > time.Second {
		t.Errorf("Get returned %v after cancellation, want within one retry interval (1s)", waited)
	}
	if !errors.Is(getErr, context.Canceled) {
		t.Errorf("Get = %v, want context.Canceled", getErr)
	}
	if cons.HasFile(pf.LFN) {
		t.Error("partial transfer reported as a local replica")
	}
	// The scheduler must account the aborted job as canceled (the worker
	// unwinds asynchronously after the waiter returns).
	waitUntil(t, 5*time.Second, "canceled job accounted", func() bool {
		return metricValue(consReg.Text(), `gdmp_xfer_jobs_total{outcome="canceled"}`) == 1
	})
}
