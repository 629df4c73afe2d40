// Overload chaos harness: a seeded ~10x offered load plus a synchronized
// retry storm slams a site's admission controller, and the overload
// protections must hold exactly — goodput stays above a floor, p99
// admission wait stays bounded by the queue, not one request executes
// after its propagated deadline, the typed retry-after floors client
// backoff, brownout sheds background work and lifts when the storm ends,
// draining refuses queued work while in-flight work finishes, and an
// injected ENOSPC on the staging path releases every reservation without
// orphaning a .part or quarantining a healthy replica.
//
// The run logs its seed; set OVERLOAD_SEED to replay one.
package gdmp_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/obs"
	"gdmp/internal/retry"
	"gdmp/internal/rpc"
	"gdmp/internal/testbed"
)

// overloadSeed returns the run's seed (overridable with OVERLOAD_SEED)
// and logs it so a failure replays exactly. The seed drives retry jitter
// and the fault injector.
func overloadSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260809)
	if s := os.Getenv("OVERLOAD_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("OVERLOAD_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("overload seed: %d (set OVERLOAD_SEED to replay)", seed)
	return seed
}

// overloadRig brings up a bare Request Manager server with its own CA so
// admission behavior can be asserted without a full site around it.
// Clients must be dialed from the test goroutine (dial calls t.Fatal).
func overloadRig(t *testing.T, methods []string, configure func(*rpc.Server)) (addr string, dial func(name string) *rpc.Client) {
	t.Helper()
	ca, err := gsi.NewCA("Overload Test CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	roots := []*gsi.Certificate{ca.Certificate()}
	serverCred, err := ca.Issue("gdmp/overload-server", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	acl := gsi.NewACL()
	for _, m := range methods {
		acl.AllowAll(gsi.Operation(m))
	}
	srv := rpc.NewServer(serverCred, roots, acl)
	configure(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	dial = func(name string) *rpc.Client {
		t.Helper()
		cred, err := ca.Issue(name, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := rpc.DialContext(context.Background(), ln.Addr().String(), cred, roots, rpc.WithTimeout(10*time.Second))
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	return ln.Addr().String(), dial
}

// histQuantile computes a conservative quantile from a histogram
// snapshot: the upper bound of the bucket holding the q-th observation.
func histQuantile(h *obs.Histogram, q float64) float64 {
	bounds, counts := h.Snapshot()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return bounds[i]
		}
	}
	return math.Inf(1)
}

// TestOverloadGoodputUnderRetryStorm is the acceptance scenario: 40
// closed-loop workers (10x the 4 control slots) all released on one
// barrier, each retrying under the shared policy — a synchronized retry
// storm. The admission controller must keep goodput above the floor,
// bound p99 admission wait by the queue, reject the overflow with typed
// retry-afters that floor the clients' backoff, and — by exact
// accounting — never execute a request past its propagated deadline.
func TestOverloadGoodputUnderRetryStorm(t *testing.T) {
	seed := overloadSeed(t)
	reg := obs.NewRegistry()
	ctrl := admission.New(admission.Config{
		ControlSlots:  4,
		ControlQueue:  16,
		RetryAfterMin: 10 * time.Millisecond,
		Registry:      reg,
	})
	var executed, lateExecs atomic.Int64
	_, dial := overloadRig(t, []string{"work"}, func(s *rpc.Server) {
		s.SetMetrics(reg)
		s.SetAdmission(ctrl, nil)
		s.Handle("work", func(ctx context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
			// The post-deadline accounting: the wire-propagated budget
			// becomes the handler context's deadline, and a handler
			// entered after it is an admission bug.
			if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
				lateExecs.Add(1)
			}
			executed.Add(1)
			time.Sleep(2 * time.Millisecond)
			return nil
		})
	})

	const workers, opsPer = 40, 5
	clients := make([]*rpc.Client, workers)
	for w := range clients {
		clients[w] = dial(fmt.Sprintf("worker-%d", w))
	}

	start := make(chan struct{})
	var succeeded atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w]
			pol := retry.Policy{
				Attempts:  8,
				BaseDelay: time.Millisecond, // below RetryAfterMin, so floors must fire
				MaxDelay:  20 * time.Millisecond,
				Jitter:    0.5,
				Seed:      seed + int64(w),
				Op:        "overload.work",
				Registry:  reg,
			}
			<-start
			for op := 0; op < opsPer; op++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				err := pol.Do(ctx, func(int) error {
					_, err := cl.CallContext(ctx, "work", nil)
					return err
				})
				cancel()
				if err == nil {
					succeeded.Add(1)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	const total = workers * opsPer
	const floor = total * 6 / 10
	if got := succeeded.Load(); got < floor {
		t.Errorf("goodput %d/%d, want >= %d", got, total, floor)
	}
	if got := lateExecs.Load(); got != 0 {
		t.Errorf("%d requests executed past their propagated deadline, want 0", got)
	}
	waitUntil(t, 5*time.Second, "admission settled", ctrl.Settled)
	cs := ctrl.ClassStats(admission.Control)
	if cs.Rejected+cs.Expired == 0 {
		t.Error("a 10x storm produced zero admission rejections; the controller is not limiting")
	}
	if cs.Admitted != uint64(executed.Load()) {
		t.Errorf("admitted %d != executed %d; a granted slot must mean exactly one execution", cs.Admitted, executed.Load())
	}
	floors := reg.CounterVec("gdmp_retry_retry_after_floors_total", "", "op").
		WithLabelValues("overload.work").Value()
	if floors == 0 {
		t.Error("no client backoff was floored by the server retry-after")
	}
	wait := reg.HistogramVec("gdmp_admission_wait_seconds", "", nil, "class").
		WithLabelValues("control")
	if p99 := histQuantile(wait, 0.99); p99 > 0.25 {
		t.Errorf("p99 admission wait %.3fs, want <= 0.25s (bounded by the queue)", p99)
	}
	t.Logf("storm: %d/%d succeeded, %d executed, %d rejected/expired, %d backoff floors, p99 wait <= %.3gs",
		succeeded.Load(), total, executed.Load(), cs.Rejected+cs.Expired, floors, histQuantile(wait, 0.99))
}

// TestOverloadBrownoutShedsBackgroundAndRecovers storms a site's GridFTP
// data plane (one bulk slot, real multi-millisecond transfers) until its
// brownout trips, then proves background scrub passes stop (deferred,
// counted) while the storm lasts and resume after it ends and the load
// signal decays below the exit threshold.
func TestOverloadBrownoutShedsBackgroundAndRecovers(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	reg := obs.NewRegistry()
	site, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Metrics:       reg,
		ScrubInterval: 25 * time.Millisecond,
		Admission: admission.Config{
			BulkSlots:     1,
			BulkQueue:     4,
			BrownoutEnter: 0.6,
			BrownoutExit:  0.2,
			DecayHalfLife: 250 * time.Millisecond, // so the test sees the exit promptly
			RetryAfterMin: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rel = "overload/hot.db"
	publishData(t, g, site, rel, testbed.MakeData(4<<20, 7))
	scrubPasses := func() int64 { return reg.Counter("gdmp_scrub_passes_total", "").Value() }
	// The brownout state as the site's metrics carry it; admission moves
	// these on every Admit and Allow (the scrub loop's ticks included).
	type brownoutState struct {
		active            bool
		entered, deferred int64
	}
	brownout := func() brownoutState {
		return brownoutState{
			active:   reg.Gauge("gdmp_brownout_active", "").Value() != 0,
			entered:  reg.Counter("gdmp_brownout_entered_total", "").Value(),
			deferred: reg.CounterVec("gdmp_brownout_deferred_total", "", "work").WithLabelValues("scrub").Value(),
		}
	}
	waitUntil(t, 5*time.Second, "scrub daemon running", func() bool { return scrubPasses() > 0 })

	// The storm: 12 closed-loop GridFTP readers against one bulk slot.
	// Each 4 MiB transfer holds the slot for real milliseconds, so the
	// wait queue stays full and admission waits dominate the load signal.
	const stormers = 12
	scratch := t.TempDir()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < stormers; i++ {
		cred, err := g.CA.Issue(fmt.Sprintf("stormer-%d", i), time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cred *gsi.Credential) {
			defer wg.Done()
			dst := filepath.Join(scratch, fmt.Sprintf("pull-%d", i))
			for {
				select {
				case <-stop:
					return
				default:
				}
				cl, err := gridftp.Dial(site.DataAddr(), cred, g.Roots)
				if err != nil {
					continue
				}
				_, _ = cl.GetFile(rel, dst) // busy rejections are the point
				cl.Close()
			}
		}(i, cred)
	}

	waitUntil(t, 10*time.Second, "brownout entry", func() bool { return brownout().active })
	// Several scrub intervals under the storm. No pass completes while a
	// brownout holds — a periodic pass asks admission again before it counts
	// itself, so even one in flight at the entry is shed — but the brownout
	// need not hold for the whole window: the storm is closed-loop, most of
	// its time goes into GSI handshakes, and whenever the bulk queue runs
	// empty for a moment (1 run in 15 on an idle two-core machine, every
	// second run beside another test package) the load signal falls below
	// the exit threshold, the brownout lifts, passes run, and it re-enters.
	// That is the controller working. So every stretch between two looks in
	// which the brownout did hold (active at both, BrownoutEntered unmoved)
	// is judged, and there must be such stretches.
	prev := brownout()
	deferredBefore := prev.deferred
	passesBefore := scrubPasses() // read after prev, so inside the stretch
	held := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
		passes := scrubPasses() // read before st, so inside the stretch
		st := brownout()
		if prev.active && st.active && st.entered == prev.entered {
			held++
			if passes != passesBefore {
				t.Errorf("scrub passes advanced %d -> %d while the brownout held, want deferred", passesBefore, passes)
			}
		}
		prev, passesBefore = st, scrubPasses()
	}
	if held == 0 {
		t.Error("the brownout never held between two looks while the storm ran")
	}
	if st := brownout(); st.deferred <= deferredBefore {
		t.Errorf("brownout deferred count did not advance (%d -> %d)", deferredBefore, st.deferred)
	}
	rejected := reg.CounterVec("gdmp_admission_rejected_total", "", "class", "reason")
	var rejections int64
	for _, class := range []string{"control", "bulk", "background"} {
		for _, reason := range []string{"deadline", "queue_full", "expired", "draining"} {
			rejections += rejected.WithLabelValues(class, reason).Value()
		}
	}
	if rejections == 0 {
		t.Error("storm produced zero admission rejections")
	}

	close(stop)
	wg.Wait()
	waitUntil(t, 10*time.Second, "brownout exit", func() bool { return !brownout().active })
	passesAfter := scrubPasses()
	waitUntil(t, 5*time.Second, "scrub passes resume", func() bool { return scrubPasses() > passesAfter })
	if st := brownout(); st.entered < 1 {
		t.Errorf("gdmp_brownout_entered_total = %d, want >= 1", st.entered)
	}
}

// TestOverloadNoSpaceReleasesReservation injects ENOSPC into a
// consumer's staging writes and proves the failure is contained: the
// pull fails with the real errno, the pool reservation is released, no
// .part orphan survives, nothing is quarantined, the injected fault is
// accounted exactly, and the producer's healthy replica stays pullable.
func TestOverloadNoSpaceReleasesReservation(t *testing.T) {
	seed := overloadSeed(t)
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	producer, err := g.AddSite("cern.ch", testbed.SiteOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	consReg := obs.NewRegistry()
	in := faults.New(seed, func(faults.ConnInfo) faults.Plan { return faults.Plan{} },
		faults.WithMetrics(consReg))
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Metrics:          consReg,
		Durable:          true,
		WithMSS:          true,
		MSSCapacity:      256 << 10,
		Retry:            fastRetry(2),
		TransferAttempts: 2,
		StageWriter:      in.NoSpaceWriter(16 << 10), // disk "fills" 16 KiB into a 64 KiB file
	})
	if err != nil {
		t.Fatal(err)
	}

	payload := testbed.MakeData(64<<10, seed)
	pf := publishData(t, g, producer, "overload/full.db", payload)

	err = cons.Get(pf.LFN)
	if err == nil {
		t.Fatal("Get succeeded despite ENOSPC injection on every staging write")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Get error = %v, want errors.Is(..., syscall.ENOSPC)", err)
	}
	if got := in.Injected(faults.KindNoSpace); got < 1 {
		t.Errorf("injected ENOSPC count = %d, want >= 1", got)
	}

	// Containment: reservation released, no .part orphan, no quarantine.
	if got := consReg.Gauge("gdmp_pool_reserved_bytes", "").Value(); got != 0 {
		t.Errorf("pool reservation leaked: %d bytes still reserved", got)
	}
	if used := consReg.Gauge("gdmp_pool_occupancy_bytes", "").Value(); used != 0 {
		t.Errorf("pool used = %d bytes after a failed pull, want 0", used)
	}
	if n := consReg.Gauge(core.RecoveryMetricsPrefix+"_quarantined", "").Value(); n != 0 {
		t.Errorf("quarantined %d files after an ENOSPC pull failure, want 0", n)
	}
	var orphans []string
	err = filepath.WalkDir(cons.DataDir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".part") {
			orphans = append(orphans, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Errorf(".part orphans after ENOSPC: %v (a full disk must not keep partials)", orphans)
	}

	// The producer's replica must be untouched: a healthy consumer pulls it.
	cons2, err := g.AddSite("fnal.gov", testbed.SiteOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cons2.Get(pf.LFN); err != nil {
		t.Fatalf("healthy consumer pull after the ENOSPC episode: %v", err)
	}
}

// TestOverloadDrainRejectsQueuedKeepsInFlight fills the admission queue,
// drains the controller, and proves the drain contract over the wire:
// queued and new work is refused with the typed draining rejection,
// the in-flight request finishes normally, and the class accounting
// settles exactly.
func TestOverloadDrainRejectsQueuedKeepsInFlight(t *testing.T) {
	reg := obs.NewRegistry()
	ctrl := admission.New(admission.Config{
		ControlSlots:  1,
		ControlQueue:  4,
		RetryAfterMin: 2 * time.Millisecond,
		Registry:      reg,
	})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	_, dial := overloadRig(t, []string{"hold"}, func(s *rpc.Server) {
		s.SetMetrics(reg)
		s.SetAdmission(ctrl, nil)
		s.Handle("hold", func(ctx context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
			entered <- struct{}{}
			<-release
			resp.String("done")
			return nil
		})
	})

	holder := dial("holder")
	waiter0, waiter1 := dial("waiter-0"), dial("waiter-1")
	late := dial("latecomer")

	inflight := make(chan error, 1)
	go func() {
		d, err := holder.CallContext(context.Background(), "hold", nil)
		if err == nil && d.String() != "done" {
			err = fmt.Errorf("unexpected reply")
		}
		inflight <- err
	}()
	<-entered

	queued := make(chan error, 2)
	go func() { _, err := waiter0.CallContext(context.Background(), "hold", nil); queued <- err }()
	go func() { _, err := waiter1.CallContext(context.Background(), "hold", nil); queued <- err }()
	waitUntil(t, 3*time.Second, "two queued waiters", func() bool {
		return reg.GaugeVec("gdmp_admission_queue_depth", "", "class").WithLabelValues("control").Value() == 2
	})

	ctrl.Drain()
	for i := 0; i < 2; i++ {
		err := <-queued
		if !errors.Is(err, admission.ErrDraining) {
			t.Fatalf("queued waiter %d error = %v, want ErrDraining", i, err)
		}
		if !errors.Is(err, admission.ErrOverloaded) {
			t.Fatalf("queued waiter %d error = %v, want ErrOverloaded too", i, err)
		}
	}
	if _, err := late.CallContext(context.Background(), "hold", nil); !errors.Is(err, admission.ErrDraining) {
		t.Fatalf("post-drain call error = %v, want ErrDraining", err)
	}

	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request must finish across a drain, got %v", err)
	}
	waitUntil(t, 3*time.Second, "admission settled", ctrl.Settled)
	cs := ctrl.ClassStats(admission.Control)
	if cs.Requested != 4 || cs.Admitted != 1 || cs.Drained != 3 {
		t.Errorf("drain accounting requested=%d admitted=%d drained=%d, want 4/1/3", cs.Requested, cs.Admitted, cs.Drained)
	}
}
