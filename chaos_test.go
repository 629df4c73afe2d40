// Chaos integration tests: scripted partial failures injected with
// internal/faults must be fully absorbed by the unified retry/backoff
// layer, with the grid converging to the correct replica state and the
// gdmp_retry_* / gdmp_faults_* / gdmp_site_* series accounting for every
// injected fault exactly.
//
// Every test logs its seed; set CHAOS_SEED to replay a run.
package gdmp_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/obs"
	"gdmp/internal/retry"
	"gdmp/internal/testbed"
)

// chaosSeed returns the run's fault-injection seed (overridable with
// CHAOS_SEED) and logs it so a failure replays exactly.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed: %d (set CHAOS_SEED to replay)", seed)
	return seed
}

// fastRetry is a quick deterministic backoff for test sites.
func fastRetry(attempts int) retry.Policy {
	return retry.Policy{
		Attempts:  attempts,
		BaseDelay: 2 * time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
	}
}

// addrBox publishes an address to a fault script after site creation
// without racing the script's goroutines.
type addrBox struct {
	mu   sync.Mutex
	addr string
}

func (b *addrBox) set(a string) { b.mu.Lock(); b.addr = a; b.mu.Unlock() }
func (b *addrBox) get() string  { b.mu.Lock(); defer b.mu.Unlock(); return b.addr }

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func publishData(t *testing.T, g *testbed.Grid, site *core.Site, rel string, data []byte) core.PublishedFile {
	t.Helper()
	if _, err := g.WriteSiteFile(site.Name(), rel, data); err != nil {
		t.Fatal(err)
	}
	pf, err := site.Publish(rel, core.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestChaosScriptedScheduleAbsorbed is the acceptance scenario: a scripted
// schedule of one refused GridFTP dial, one mid-stream reset after 64 KiB,
// and two dropped notifications must be fully absorbed — the consumer
// converges on the published file and every retry and fault is accounted
// for exactly in the metric families.
func TestChaosScriptedScheduleAbsorbed(t *testing.T) {
	seed := chaosSeed(t)
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prodReg, consReg := obs.NewRegistry(), obs.NewRegistry()

	// Producer: every dial to the consumer's control address is refused
	// twice (the two dropped notifies). The consumer's address is boxed
	// because the consumer does not exist yet.
	var consCtl addrBox
	prodFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		if c.Addr == consCtl.get() && c.AddrSeq < 2 {
			return faults.Plan{RefuseDial: true}
		}
		return faults.Plan{}
	}, faults.WithMetrics(prodReg))

	// Attempts=1 disables the dial-level retry so the drops surface to the
	// notification redelivery queue rather than being absorbed by redials.
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Metrics: prodReg,
		Faults:  prodFaults,
		Retry:   fastRetry(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	prodCtl, prodFTP := prod.Addr(), prod.DataAddr()

	// Consumer: the first control dial to the producer's GridFTP endpoint
	// is refused, and the first passive-mode data connection is reset
	// after exactly 64 KiB on the wire. Everything else runs clean.
	var consMu sync.Mutex
	dataConns := 0
	consFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		switch c.Addr {
		case g.CatalogAddr, prodCtl:
			return faults.Plan{}
		case prodFTP:
			if c.AddrSeq == 0 {
				return faults.Plan{RefuseDial: true}
			}
			return faults.Plan{}
		}
		// Any other address is a passive-mode data connection.
		consMu.Lock()
		defer consMu.Unlock()
		dataConns++
		if dataConns == 1 {
			return faults.Plan{ResetAfterBytes: 64 << 10}
		}
		return faults.Plan{}
	}, faults.WithMetrics(consReg))

	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics:     consReg,
		Faults:      consFaults,
		Retry:       fastRetry(3),
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.SubscribeTo(prodCtl); err != nil {
		t.Fatal(err)
	}
	consCtl.set(cons.Addr())

	data := testbed.MakeData(256<<10, 42)
	pf := publishData(t, g, prod, "chaos/f.db", data)

	// The notice survives two dropped deliveries.
	waitUntil(t, 10*time.Second, "notification delivery", func() bool {
		return len(cons.Pending()) == 1 &&
			metricValue(prodReg.Text(), `gdmp_site_notifications_total{outcome="ok"}`) == 1
	})
	// The pull survives one refused dial and one mid-stream reset.
	if n, err := cons.ProcessPending(); err != nil || n != 1 {
		t.Fatalf("ProcessPending = %d, %v", n, err)
	}
	if !cons.HasFile(pf.LFN) {
		t.Fatal("consumer did not converge on the published file")
	}
	got, err := os.ReadFile(filepath.Join(cons.DataDir(), "chaos", "f.db"))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replicated content mismatch: %v", err)
	}

	// Exact fault accounting, from the injectors themselves...
	if n := consFaults.Injected(faults.KindDialRefused); n != 1 {
		t.Errorf("consumer dial refusals = %d, want 1", n)
	}
	if n := consFaults.Injected(faults.KindReset); n != 1 {
		t.Errorf("consumer resets = %d, want 1", n)
	}
	if n := prodFaults.Injected(faults.KindDialRefused); n != 2 {
		t.Errorf("producer dial refusals = %d, want 2", n)
	}

	// ...and from the metric families: the retry layer took exactly one
	// backoff per absorbed transfer fault and the redelivery queue exactly
	// two for the dropped notifies, then drained to zero.
	waitUntil(t, 5*time.Second, "notify queue drain", func() bool {
		return metricValue(prodReg.Text(), `gdmp_site_notify_queue_depth`) == 0
	})
	cons2 := consReg.Text()
	for series, want := range map[string]float64{
		`gdmp_retry_attempts_total{op="gridftp.get",outcome="error"}`: 2,
		`gdmp_retry_attempts_total{op="gridftp.get",outcome="ok"}`:    1,
		`gdmp_retry_ops_total{op="gridftp.get",outcome="ok"}`:         1,
		`gdmp_retry_backoffs_total{op="gridftp.get"}`:                 2,
		`gdmp_retry_ops_total{op="core.replicate",outcome="ok"}`:      1,
		`gdmp_faults_injected_total{kind="dial_refused"}`:             1,
		`gdmp_faults_injected_total{kind="reset"}`:                    1,
		`gdmp_site_replications_total{outcome="ok"}`:                  1,
		`gdmp_site_notifications_received_total`:                      1,
	} {
		if got := metricValue(cons2, series); got != want {
			t.Errorf("consumer %s = %v, want %v", series, got, want)
		}
	}
	prod2 := prodReg.Text()
	for series, want := range map[string]float64{
		`gdmp_site_notifications_total{outcome="error"}`:            2,
		`gdmp_site_notifications_total{outcome="ok"}`:               1,
		`gdmp_site_notify_redeliveries_total`:                       2,
		`gdmp_site_notify_queue_depth`:                              0,
		`gdmp_site_suspect_subscribers`:                             0,
		`gdmp_retry_attempts_total{op="core.dial",outcome="error"}`: 2,
		`gdmp_retry_ops_total{op="core.dial",outcome="exhausted"}`:  2,
		`gdmp_retry_ops_total{op="core.dial",outcome="ok"}`:         1,
		`gdmp_faults_injected_total{kind="dial_refused"}`:           2,
	} {
		if got := metricValue(prod2, series); got != want {
			t.Errorf("producer %s = %v, want %v", series, got, want)
		}
	}
}

// TestChaosFlappingSubscriberSuspectAndHeal drives a subscriber past the
// consecutive-failure threshold: the producer must mark it suspect, stop
// queueing for it, and heal it on re-subscribe, with the missed files
// reconciled through Recover.
func TestChaosFlappingSubscriberSuspectAndHeal(t *testing.T) {
	seed := chaosSeed(t)
	g, err := testbed.NewGrid(t.TempDir())
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
		Metrics:                prodReg,
		Faults:                 prodFaults,
		Retry:                  fastRetry(1),
		NotifyFailureThreshold: 2,
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

	// The subscriber flaps: two consecutive failed deliveries.
	down.Store(true)
	a := publishData(t, g, prod, "flap/a.db", testbed.MakeData(60_000, 1))
	waitUntil(t, 10*time.Second, "subscriber suspect", func() bool {
		return metricValue(prodReg.Text(), `gdmp_site_suspect_subscribers`) == 1
	})
	if s := prod.SuspectSubscribers(); len(s) != 1 || s[0] != "anl.gov" {
		t.Fatalf("SuspectSubscribers = %v", s)
	}

	// While suspect, publications are not queued for it.
	b := publishData(t, g, prod, "flap/b.db", testbed.MakeData(60_000, 2))
	prodText := prodReg.Text()
	if got := metricValue(prodText, `gdmp_site_notify_skipped_total`); got != 1 {
		t.Errorf("notify_skipped_total = %v, want 1", got)
	}
	if got := metricValue(prodText, `gdmp_site_notify_queue_depth`); got != 0 {
		t.Errorf("notify_queue_depth = %v, want 0 (suspect queue dropped)", got)
	}

	// Heal: the consumer comes back, reconciles through the producer's
	// catalog, and re-subscribes.
	down.Store(false)
	fetched, err := cons.Recover(prod.Addr())
	if err != nil || fetched != 2 {
		t.Fatalf("Recover = %d, %v", fetched, err)
	}
	if !cons.HasFile(a.LFN) || !cons.HasFile(b.LFN) {
		t.Fatal("Recover did not reconcile the missed files")
	}
	if err := cons.SubscribeTo(prod.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(prodReg.Text(), `gdmp_site_suspect_subscribers`); got != 0 {
		t.Errorf("suspect_subscribers after re-subscribe = %v, want 0", got)
	}

	// Deliveries flow again.
	c := publishData(t, g, prod, "flap/c.db", testbed.MakeData(60_000, 3))
	waitUntil(t, 10*time.Second, "post-heal delivery", func() bool {
		return len(cons.Pending()) == 1
	})
	if n, err := cons.ProcessPending(); err != nil || n != 1 {
		t.Fatalf("ProcessPending = %d, %v", n, err)
	}
	if !cons.HasFile(c.LFN) {
		t.Fatal("post-heal publication not replicated")
	}

	prodText = prodReg.Text()
	for series, want := range map[string]float64{
		`gdmp_site_notifications_total{outcome="error"}`: 2,
		`gdmp_site_notifications_total{outcome="ok"}`:    1,
		`gdmp_site_notify_redeliveries_total`:            1,
		`gdmp_site_notify_skipped_total`:                 1,
	} {
		if got := metricValue(prodText, series); got != want {
			t.Errorf("producer %s = %v, want %v", series, got, want)
		}
	}
}

// TestRecoverWithMidTransferFailure reconciles a consumer against a
// producer catalog while the first transfer's data connection is reset
// mid-stream: Recover must still fetch every file.
func TestRecoverWithMidTransferFailure(t *testing.T) {
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
	prodCtl, prodFTP := prod.Addr(), prod.DataAddr()

	consReg := obs.NewRegistry()
	var consMu sync.Mutex
	dataConns := 0
	consFaults := faults.New(seed, func(c faults.ConnInfo) faults.Plan {
		switch c.Addr {
		case g.CatalogAddr, prodCtl, prodFTP:
			return faults.Plan{}
		}
		consMu.Lock()
		defer consMu.Unlock()
		dataConns++
		if dataConns == 1 {
			return faults.Plan{ResetAfterBytes: 32 << 10}
		}
		return faults.Plan{}
	}, faults.WithMetrics(consReg))

	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics:     consReg,
		Faults:      consFaults,
		Retry:       fastRetry(3),
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	da := testbed.MakeData(120_000, 4)
	db := testbed.MakeData(120_000, 5)
	a := publishData(t, g, prod, "rec/a.db", da)
	b := publishData(t, g, prod, "rec/b.db", db)

	fetched, err := cons.Recover(prodCtl)
	if err != nil || fetched != 2 {
		t.Fatalf("Recover = %d, %v", fetched, err)
	}
	if !cons.HasFile(a.LFN) || !cons.HasFile(b.LFN) {
		t.Fatal("files missing after Recover")
	}
	for rel, want := range map[string][]byte{"rec/a.db": da, "rec/b.db": db} {
		got, err := os.ReadFile(filepath.Join(cons.DataDir(), filepath.FromSlash(rel)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("content mismatch for %s: %v", rel, err)
		}
	}
	if n := consFaults.Injected(faults.KindReset); n != 1 {
		t.Errorf("resets = %d, want 1", n)
	}
	if got := metricValue(consReg.Text(),
		`gdmp_retry_attempts_total{op="gridftp.get",outcome="error"}`); got != 1 {
		t.Errorf("gridftp.get error attempts = %v, want 1", got)
	}
}

// TestProcessPendingRequeuesRemainder pins ProcessPending's
// partial-failure contract under the concurrent scheduler: every pending
// file is attempted, the ones that fail (and only those) stay pending, and
// the count reflects the files that actually arrived. An older
// sequential bug dropped the unattempted tail on the first failure; the
// concurrent version must lose no notice either.
func TestProcessPendingRequeuesRemainder(t *testing.T) {
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
	if err := cons.SubscribeTo(prod.Addr()); err != nil {
		t.Fatal(err)
	}

	d1 := testbed.MakeData(40_000, 6)
	f1 := publishData(t, g, prod, "pp/f1.db", d1)
	// Sabotage f1 at the source: the pull's SIZE finds it missing, the
	// source cannot stage it back, and the first replication fails.
	if err := os.Remove(filepath.Join(prod.DataDir(), "pp", "f1.db")); err != nil {
		t.Fatal(err)
	}
	f2 := publishData(t, g, prod, "pp/f2.db", testbed.MakeData(40_000, 7))
	f3 := publishData(t, g, prod, "pp/f3.db", testbed.MakeData(40_000, 8))

	waitUntil(t, 10*time.Second, "three pending notices", func() bool {
		return len(cons.Pending()) == 3
	})

	n, err := cons.ProcessPending()
	if err == nil {
		t.Fatal("ProcessPending succeeded with a sabotaged source")
	}
	if !strings.Contains(err.Error(), f1.LFN) {
		t.Fatalf("error %v does not name the failed file %s", err, f1.LFN)
	}
	if n != 2 {
		t.Fatalf("fetched %d files, want 2 (the healthy ones must not be held back)", n)
	}
	if !cons.HasFile(f2.LFN) || !cons.HasFile(f3.LFN) {
		t.Fatal("healthy files missing after partial failure")
	}
	pending := cons.Pending()
	if len(pending) != 1 {
		t.Fatalf("pending after failure = %d entries, want only the failed file re-queued", len(pending))
	}
	if pending[0].LFN != f1.LFN {
		t.Fatalf("re-queued entry = %s, want %s", pending[0].LFN, f1.LFN)
	}

	// Repair the source; the re-queued remainder drains completely.
	if _, err := g.WriteSiteFile(prod.Name(), "pp/f1.db", d1); err != nil {
		t.Fatal(err)
	}
	n, err = cons.ProcessPending()
	if err != nil || n != 1 {
		t.Fatalf("ProcessPending after repair = %d, %v", n, err)
	}
	for _, lfn := range []string{f1.LFN, f2.LFN, f3.LFN} {
		if !cons.HasFile(lfn) {
			t.Fatalf("%s missing after retry", lfn)
		}
	}
}
