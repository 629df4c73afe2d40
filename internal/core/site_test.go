package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/gridftp"
	"gdmp/internal/health"
	"gdmp/internal/journal"
	"gdmp/internal/objectstore"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
	"gdmp/internal/rpc"
	"gdmp/internal/testbed"
)

// newGrid builds a grid with cleanup registered.
func newGrid(t *testing.T) *testbed.Grid {
	t.Helper()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func addSite(t *testing.T, g *testbed.Grid, name string, opts testbed.SiteOptions) *core.Site {
	t.Helper()
	s, err := g.AddSite(name, opts)
	if err != nil {
		t.Fatalf("AddSite(%s): %v", name, err)
	}
	return s
}

// transfers reads gdmp_site_transfers_total{outcome} (outcome "ok" or
// "error") from a site's registry: the transfer legs it ran.
func transfers(reg *obs.Registry, outcome string) int64 {
	return reg.CounterVec(core.SiteMetricsPrefix+"_transfers_total", "", "outcome").WithLabelValues(outcome).Value()
}

func publish(t *testing.T, g *testbed.Grid, site *core.Site, rel string, data []byte, opts core.PublishOptions) core.PublishedFile {
	t.Helper()
	if _, err := g.WriteSiteFile(site.Name(), rel, data); err != nil {
		t.Fatal(err)
	}
	pf, err := site.Publish(rel, opts)
	if err != nil {
		t.Fatalf("Publish(%s): %v", rel, err)
	}
	return pf
}

// TestFailedStartLeaksNothing: a site whose control port is taken fails
// to start after its scheduler, catalog session and GridFTP server are
// already up; every one of them must be torn down again.
func TestFailedStartLeaksNothing(t *testing.T) {
	g := newGrid(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	baseline := runtime.NumGoroutine()
	if _, err := g.AddSite("late.ch", testbed.SiteOptions{GDMPListen: taken.Addr().String()}); err == nil {
		t.Fatal("site started on an occupied control port")
	}
	// The catalog server notices the closed session asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the failed start, %d before:\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestCloseDuringNotifyStorm: every notification of a fresh LFN journals
// an intent and submits a pull that fails, while Close tears the site
// down. Close must have stopped dispatching handlers before it closes
// what they use; under -race a handler racing the teardown is reported.
func TestCloseDuringNotifyStorm(t *testing.T) {
	g := newGrid(t)
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{AutoReplicate: true})
	cred, err := g.CA.Issue("gdmp/storm", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := rpc.DialContext(context.Background(), anl.Addr(), cred, g.Roots)
			if err != nil {
				return // the site is already gone
			}
			defer cl.Close()
			for i := 0; ; i++ {
				// One FileInfo nobody holds: the pull fails at locate and
				// its intent stays pending.
				var e rpc.Encoder
				e.String("storm")
				e.Uint32(1)
				e.String(fmt.Sprintf("lfn://storm/%d/%d", w, i))
				e.String("x.db")
				e.Int64(1)
				e.String("")
				e.String("flat")
				e.String(string(core.StateDisk))
				if _, err := cl.CallContext(context.Background(), core.MethodNotify, &e); err != nil {
					return // the closing site hung up
				}
			}
		}()
	}
	waitFor(t, func() bool { return len(anl.Pending()) > 0 }, "the storm to reach the site")
	anl.Close() // its error is the catalog session's, cut mid-call by the storm's pulls
	wg.Wait()
}

func TestPublishRegistersEverything(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	data := testbed.MakeData(50_000, 1)
	pf := publish(t, g, cern, "runs/run42.db", data, core.PublishOptions{Collection: "run-2001"})

	if pf.LFN != "lfn://cern.ch/runs/run42.db" {
		t.Fatalf("LFN = %q", pf.LFN)
	}
	if pf.Size != 50_000 {
		t.Fatalf("Size = %d", pf.Size)
	}
	// Central catalog has the entry, attrs, replica, and collection.
	var attrs map[string]string
	if err := g.Catalog.ReadEntry(pf.LFN, func(f *replica.LogicalFile) { attrs = maps.Clone(f.Attrs) }); err != nil {
		t.Fatal(err)
	}
	if attrs["size"] != "50000" || attrs["filetype"] != "flat" || attrs["site"] != "cern.ch" {
		t.Fatalf("attrs = %v", attrs)
	}
	locs, err := g.Catalog.Locations(pf.LFN)
	if err != nil || len(locs) != 1 {
		t.Fatalf("Locations = %v, %v", locs, err)
	}
	members, err := g.Catalog.ListCollection("run-2001")
	if err != nil || len(members) != 1 {
		t.Fatalf("collection members = %v, %v", members, err)
	}
	// Local catalog sees it on disk.
	if !cern.HasFile(pf.LFN) {
		t.Fatal("publisher's local catalog missing the file")
	}
}

func TestPublishEnforcesGlobalNamespace(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	data := testbed.MakeData(100, 2)
	publish(t, g, cern, "a.db", data, core.PublishOptions{LFN: "lfn://x/dup"})
	if _, err := g.WriteSiteFile("cern.ch", "b.db", data); err != nil {
		t.Fatal(err)
	}
	_, err := cern.Publish("b.db", core.PublishOptions{LFN: "lfn://x/dup"})
	if err == nil || !strings.Contains(err.Error(), "already taken") {
		t.Fatalf("duplicate LFN: %v", err)
	}
}

// TestRefusedPublishLeavesNothing: a publish whose register is refused
// (its LFN is taken) read the file once and wrote its parity sidecar, and
// leaves neither that sidecar nor a pool entry nor a journal record.
func TestRefusedPublishLeavesNothing(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{
		Durable: true, WithMSS: true, Metrics: reg, ParityK: parity.DefaultK, ParityM: parity.DefaultM,
	})
	publish(t, g, cern, "a.db", testbed.MakeData(100_000, 1), core.PublishOptions{LFN: "lfn://x/dup"})
	if _, err := g.WriteSiteFile("cern.ch", "b.db", testbed.MakeData(100_000, 2)); err != nil {
		t.Fatal(err)
	}
	appends := reg.Counter(journal.MetricsPrefix+"_appends_total", "")
	before := appends.Value()
	if _, err := cern.Publish("b.db", core.PublishOptions{LFN: "lfn://x/dup"}); err == nil {
		t.Fatal("duplicate LFN accepted")
	}
	pool := cern.Pool()
	if cern.SidecarOnDisk("b.db") || pool.OnDisk("b.db") || pool.OnDisk("b.db"+parity.Suffix) || appends.Value() != before {
		t.Fatalf("refused publish left: sidecar %v, pool entry %v, pooled sidecar %v, %d journal appends",
			cern.SidecarOnDisk("b.db"), pool.OnDisk("b.db"), pool.OnDisk("b.db"+parity.Suffix), appends.Value()-before)
	}
	if !cern.SidecarOnDisk("a.db") {
		t.Fatal("the refusal took the landed replica's sidecar")
	}
}

func TestPublishValidation(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	if _, err := cern.Publish("missing.db", core.PublishOptions{}); err == nil {
		t.Error("publishing a missing file accepted")
	}
	if _, err := g.WriteSiteFile("cern.ch", "f.db", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := cern.Publish("f.db", core.PublishOptions{FileType: "no-such-type"}); !errors.Is(err, core.ErrUnknownFileType) {
		t.Errorf("unknown file type: %v", err)
	}
	if _, err := cern.Publish("", core.PublishOptions{}); err == nil {
		t.Error("empty path accepted")
	}
}

func TestPullReplication(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{Parallelism: 3})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Parallelism: 3})
	data := testbed.MakeData(800_000, 3)
	pf := publish(t, g, cern, "runs/big.db", data, core.PublishOptions{})

	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("Get: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(anl.DataDir(), "runs", "big.db"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("replicated content mismatch")
	}
	// The new replica is visible to the Grid.
	locs, err := g.Catalog.Locations(pf.LFN)
	if err != nil || len(locs) != 2 {
		t.Fatalf("Locations after replication = %v, %v", locs, err)
	}
	// Idempotent: a second Get is a no-op.
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("second Get: %v", err)
	}
	// Unknown LFN fails.
	if err := anl.Get("lfn://nowhere/ghost"); err == nil {
		t.Fatal("Get of unknown LFN accepted")
	}
}

// TestPullPathWithSpace: a file whose path holds a space publishes, so it
// must pull too. Every GridFTP verb takes the rest of its line as the path;
// ERET, CKSM and STOR used to split it into words and refuse the command.
func TestPullPathWithSpace(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	data := testbed.MakeData(100_000, 4)
	pf := publish(t, g, cern, "run 1/f.db", data, core.PublishOptions{LFN: "lfn://cern.ch/run1-f"})

	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("Get: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(anl.DataDir(), "run 1", "f.db"))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replica of %q: %v", "run 1/f.db", err)
	}
}

func TestSubscribeNotifyProcessPending(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})

	if err := anl.SubscribeTo(cern.Addr()); err != nil {
		t.Fatalf("SubscribeTo: %v", err)
	}
	subs := cern.Subscribers()
	if len(subs) != 1 || subs[0] != "anl.gov" {
		t.Fatalf("Subscribers = %v", subs)
	}

	data := testbed.MakeData(200_000, 4)
	pf := publish(t, g, cern, "new.db", data, core.PublishOptions{})

	// The consumer was notified (AutoReplicate off -> pending).
	waitFor(t, func() bool { return len(anl.Pending()) == 1 }, "notification to arrive")
	if anl.HasFile(pf.LFN) {
		t.Fatal("file replicated before ProcessPending")
	}
	n, err := anl.ProcessPending()
	if err != nil {
		t.Fatalf("ProcessPending: %v", err)
	}
	if n != 1 || !anl.HasFile(pf.LFN) {
		t.Fatalf("ProcessPending fetched %d", n)
	}
	// Unsubscribe stops notifications.
	if err := anl.UnsubscribeFrom(cern.Addr()); err != nil {
		t.Fatal(err)
	}
	publish(t, g, cern, "after-unsub.db", testbed.MakeData(100, 5), core.PublishOptions{})
	time.Sleep(50 * time.Millisecond)
	if len(anl.Pending()) != 0 {
		t.Fatalf("pending after unsubscribe = %v", anl.Pending())
	}
}

func TestAutoReplicate(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{AutoReplicate: true})
	if err := anl.SubscribeTo(cern.Addr()); err != nil {
		t.Fatal(err)
	}
	data := testbed.MakeData(300_000, 6)
	pf := publish(t, g, cern, "auto.db", data, core.PublishOptions{})
	if err := anl.WaitForFile(pf.LFN, 5*time.Second); err != nil {
		t.Fatalf("auto replication: %v", err)
	}
	got, _ := os.ReadFile(filepath.Join(anl.DataDir(), "auto.db"))
	if !bytes.Equal(got, data) {
		t.Fatal("auto-replicated content mismatch")
	}
}

func TestFanOutToMultipleSubscribers(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	consumers := make([]*core.Site, 3)
	for i := range consumers {
		consumers[i] = addSite(t, g, fmt.Sprintf("site%d.edu", i), testbed.SiteOptions{AutoReplicate: true})
		if err := consumers[i].SubscribeTo(cern.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	pf := publish(t, g, cern, "fanout.db", testbed.MakeData(150_000, 7), core.PublishOptions{})
	for _, c := range consumers {
		if err := c.WaitForFile(pf.LFN, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
	// Local visibility (WaitForFile) now precedes the replica-catalog
	// registration in replicate(), so give the last addReplica a moment.
	var locs []string
	for deadline := time.Now().Add(5 * time.Second); ; {
		locs, _ = g.Catalog.Locations(pf.LFN)
		if len(locs) == 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(locs) != 4 {
		t.Fatalf("Locations = %v", locs)
	}
}

func TestFailureRecoveryViaRemoteCatalog(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	// Files published while the consumer site did not exist.
	var lfns []string
	for i := 0; i < 3; i++ {
		pf := publish(t, g, cern, fmt.Sprintf("batch/f%d.db", i), testbed.MakeData(10_000+i, int64(10+i)), core.PublishOptions{})
		lfns = append(lfns, pf.LFN)
	}
	late := addSite(t, g, "late.org", testbed.SiteOptions{})
	catalog, err := late.RemoteCatalog(cern.Addr())
	if err != nil {
		t.Fatalf("RemoteCatalog: %v", err)
	}
	if len(catalog) != 3 {
		t.Fatalf("remote catalog = %v", catalog)
	}
	n, err := late.Recover(cern.Addr())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 3 {
		t.Fatalf("Recover fetched %d", n)
	}
	for _, lfn := range lfns {
		if !late.HasFile(lfn) {
			t.Fatalf("%s missing after recovery", lfn)
		}
	}
	// Recover is idempotent.
	if n, err := late.Recover(cern.Addr()); err != nil || n != 0 {
		t.Fatalf("second Recover = %d, %v", n, err)
	}
}

func TestPing(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	name, err := anl.Ping(cern.Addr())
	if err != nil || name != "cern.ch" {
		t.Fatalf("Ping = %q, %v", name, err)
	}
}

func TestObjectivityReplicationAttachesFederation(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{WithFederation: true})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{WithFederation: true})

	// Build a database file at the producer and attach it locally.
	dbPath := filepath.Join(cern.DataDir(), "events1.odb")
	w, err := objectstore.Create(dbPath, 101)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 10; i++ {
		if err := w.Add(&objectstore.Object{
			OID: objectstore.OID{Slot: i}, Type: "raw", Event: uint64(i),
			Data: testbed.MakeData(500, int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cern.Federation().Attach(dbPath); err != nil {
		t.Fatal(err)
	}

	pf, err := cern.Publish("events1.odb", core.PublishOptions{FileType: "objectivity"})
	if err != nil {
		t.Fatalf("Publish(objectivity): %v", err)
	}
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("Get(objectivity): %v", err)
	}
	// Post-processing attached the database to the consumer's federation.
	if !anl.Federation().Attached(101) {
		t.Fatal("database not attached at destination")
	}
	obj, err := anl.Federation().Lookup(objectstore.OID{DB: 101, Slot: 3})
	if err != nil {
		t.Fatalf("Lookup through destination federation: %v", err)
	}
	if obj.Event != 3 {
		t.Fatalf("object = %+v", obj)
	}
}

func TestObjectivityRequiresFederation(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{WithFederation: true})
	plain := addSite(t, g, "plain.org", testbed.SiteOptions{})

	dbPath := filepath.Join(cern.DataDir(), "ev.odb")
	w, _ := objectstore.Create(dbPath, 7)
	w.Add(&objectstore.Object{OID: objectstore.OID{Slot: 1}, Type: "raw", Data: []byte("x")})
	w.Close()
	cern.Federation().Attach(dbPath)
	pf, err := cern.Publish("ev.odb", core.PublishOptions{FileType: "objectivity"})
	if err != nil {
		t.Fatal(err)
	}
	// A site without a federation cannot even pre-process the type.
	if err := plain.Get(pf.LFN); err == nil {
		t.Fatal("objectivity replication without federation accepted")
	}
}

func TestMSSStagingOnDemand(t *testing.T) {
	g := newGrid(t)
	reg := obs.NewRegistry()
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{WithMSS: true, MountLatency: 10 * time.Millisecond, Metrics: reg})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})

	data := testbed.MakeData(120_000, 20)
	pf := publish(t, g, cern, "cold.db", data, core.PublishOptions{})

	// Archive to tape and drop the disk copy: the file is now tape-only,
	// but the catalog still records its disk location.
	if err := cern.ArchiveLocal(pf.LFN); err != nil {
		t.Fatalf("ArchiveLocal: %v", err)
	}
	poolPath := filepath.Join(cern.DataDir(), "cold.db")
	if err := os.Remove(poolPath); err != nil {
		t.Fatal(err)
	}

	// The consumer's Get has the source stage the file before the
	// disk-to-disk transfer.
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("Get with staging: %v", err)
	}
	got, _ := os.ReadFile(filepath.Join(anl.DataDir(), "cold.db"))
	if !bytes.Equal(got, data) {
		t.Fatal("staged content mismatch")
	}
	// The source's pool copy is back (stage side effect).
	if _, err := os.Stat(poolPath); err != nil {
		t.Fatal("source pool copy not restored by staging")
	}
	// The stage request rode the GridFTP session: the source served it
	// once, and its Request Manager never heard a gdmp.stage call.
	staged := reg.CounterVec(core.SiteMetricsPrefix+"_stage_requests_total", "", "outcome")
	if ok, failed := staged.WithLabelValues("ok").Value(), staged.WithLabelValues("error").Value(); ok != 1 || failed != 0 {
		t.Errorf("source stage requests ok=%d error=%d, want 1 and 0", ok, failed)
	}
	for _, line := range strings.Split(reg.Text(), "\n") {
		if strings.HasPrefix(line, rpc.ServerMetricsPrefix+`_requests_total{method="gdmp.stage",`) && !strings.HasSuffix(line, " 0") {
			t.Errorf("source Request Manager served a stage call: %s", line)
		}
	}
}

// TestOverloadCoolsDataAddress: a pull whose source refuses the transfer
// for want of a bulk slot (a 450 on its data verb) holds that source's
// data address, the key ranking reads, out of rotation.
func TestOverloadCoolsDataAddress(t *testing.T) {
	g := newGrid(t)
	cernReg, reg := obs.NewRegistry(), obs.NewRegistry()
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{
		Metrics:   cernReg,
		Admission: admission.Config{BulkSlots: 1, BulkQueue: 1},
	})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{
		Metrics:          reg,
		Retry:            retry.Policy{Attempts: 1},
		TransferAttempts: 1,
		Health:           health.Config{ReopenBase: time.Minute},
	})
	pf := publish(t, g, cern, "busy.db", testbed.MakeData(20_000, 22), core.PublishOptions{})

	// Fill the source's bulk admission: its one slot held, its one queue
	// place taken.
	release, err := cern.HoldBulk()
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan func(), 1)
	go func() {
		r, err := cern.HoldBulk()
		if err != nil {
			r = func() {}
		}
		queued <- r
	}()
	depth := cernReg.GaugeVec("gdmp_admission_queue_depth", "", "class").WithLabelValues("bulk")
	waitFor(t, func() bool { return depth.Value() == 1 }, "the source's bulk queue to fill")

	if err := anl.Get(pf.LFN); err == nil {
		t.Fatal("pull from a source with full bulk admission succeeded")
	}
	release()
	(<-queued)()

	overloads := reg.CounterVec(health.MetricsPrefix+"_overloads_total", "", "peer")
	if n := overloads.WithLabelValues(cern.DataAddr()).Value(); n != 1 {
		t.Errorf("overloads recorded against the source's data address = %d, want 1", n)
	}
	if anl.PeerUsable(cern.DataAddr()) {
		t.Error("an overloaded source's data address is still usable")
	}
}

// TestRefusingSourceFailsOver: a source that answers the pull's SIZE with
// a 550 (the file is gone and it cannot stage it back) fails its leg at
// once, is not asked again, and the pull lands from the next replica.
func TestRefusingSourceFailsOver(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	fnal := addSite(t, g, "fnal.gov", testbed.SiteOptions{})
	data := testbed.MakeData(30_000, 23)
	pf := publish(t, g, cern, "gone.db", data, core.PublishOptions{})
	if err := fnal.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{
		Select: func(_ string, cands []core.PFN) core.PFN {
			for _, c := range cands {
				if c.Addr == cern.DataAddr() {
					return c
				}
			}
			return cands[0]
		},
	})
	if err := os.Remove(filepath.Join(cern.DataDir(), "gone.db")); err != nil {
		t.Fatal(err)
	}
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("Get past a refusing first-ranked source: %v", err)
	}
	hist := anl.TransferHistory()
	if len(hist) != 2 || hist[0].Source != cern.DataAddr() || !hist[0].Failed ||
		hist[1].Source != fnal.DataAddr() || hist[1].Failed {
		t.Fatalf("history = %+v, want one failed leg at cern then one at fnal", hist)
	}
	got, _ := os.ReadFile(filepath.Join(anl.DataDir(), "gone.db"))
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch after failover")
	}
}

func TestReplicaSelectorFallsBackFromDeadReplica(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	// No Select: the default ranking is catalog order on a cold scoreboard.
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	data := testbed.MakeData(60_000, 21)
	pf := publish(t, g, cern, "pick.db", data, core.PublishOptions{})

	// Register a bogus replica that sorts before the real one.
	const dead = "127.0.0.1:1"
	if err := g.Catalog.AddReplica(pf.LFN, "gridftp://"+dead+"/pick.db"); err != nil {
		t.Fatal(err)
	}
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("Get past a dead first-ranked replica: %v", err)
	}
	// The dead replica really was tried first, failed as one leg, and the
	// pull failed over to the live one.
	hist := anl.TransferHistory()
	if len(hist) != 2 || hist[0].Source != dead || !hist[0].Failed ||
		hist[1].Source != cern.DataAddr() || hist[1].Failed {
		t.Fatalf("history = %+v", hist)
	}
}

// TestLocateStage drives the pull pipeline's locate stage alone against
// doctored catalog state: the location table is the only remote tier, so
// a table with no other site's endpoint is a miss.
func TestLocateStage(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		doctor func(g *testbed.Grid, anl *core.Site, pf core.PublishedFile) error
		found  bool
	}{
		{"own endpoint in the location table is never a source",
			func(g *testbed.Grid, anl *core.Site, pf core.PublishedFile) error {
				return g.Catalog.AddReplica(pf.LFN, "gridftp://"+anl.DataAddr()+"/"+pf.PFN.Path)
			}, true},
		{"an empty remote location table is a miss",
			func(g *testbed.Grid, _ *core.Site, pf core.PublishedFile) error {
				return g.Catalog.RemoveReplica(pf.LFN, pf.PFN.String())
			}, false},
		{"only the own endpoint listed is a miss",
			func(g *testbed.Grid, anl *core.Site, pf core.PublishedFile) error {
				if err := g.Catalog.AddReplica(pf.LFN, "gridftp://"+anl.DataAddr()+"/"+pf.PFN.Path); err != nil {
					return err
				}
				return g.Catalog.RemoveReplica(pf.LFN, pf.PFN.String())
			}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGrid(t)
			cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
			anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
			pf := publish(t, g, cern, "runs/loc.db", testbed.MakeData(1_000, 40), core.PublishOptions{})
			if err := tc.doctor(g, anl, pf); err != nil {
				t.Fatal(err)
			}

			sources, err := anl.LocateForPull(ctx, pf.LFN)
			if !tc.found {
				if err == nil || !strings.Contains(err.Error(), "no remote replica") {
					t.Fatalf("sources = %v, err = %v; want no remote replica", sources, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(sources) != 1 || sources[0] != pf.PFN {
				t.Fatalf("sources = %v, want only %v", sources, pf.PFN)
			}
		})
	}
}

// TestCatalogCRCDrift pins the verify stage. The producer's file is
// overwritten after publish, so the source's own CKSM would match the bytes
// it serves; only the comparison against the catalog's published CRC can
// reject the leg. The rejected leg must be one failed transfer everywhere
// it is recorded, and leaves no parity sidecar behind.
func TestCatalogCRCDrift(t *testing.T) {
	for _, tc := range []struct {
		name        string
		goodReplica bool
	}{
		{"fails over to a good replica", true},
		{"fails with no other replica", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGrid(t)
			cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
			data := testbed.MakeData(90_000, 30)
			pf := publish(t, g, cern, "runs/drift.db", data, core.PublishOptions{})
			if tc.goodReplica {
				fnal := addSite(t, g, "fnal.gov", testbed.SiteOptions{})
				if err := fnal.Get(pf.LFN); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := g.WriteSiteFile("cern.ch", "runs/drift.db", testbed.MakeData(90_000, 31)); err != nil {
				t.Fatal(err)
			}
			// The drifted producer is tried first.
			reg := obs.NewRegistry()
			anl := addSite(t, g, "anl.gov", testbed.SiteOptions{
				Metrics: reg,
				ParityK: parity.DefaultK, ParityM: parity.DefaultM,
				Select: func(_ string, cands []core.PFN) core.PFN {
					for _, c := range cands {
						if c.Addr == cern.DataAddr() {
							return c
						}
					}
					return cands[0]
				},
			})
			err := anl.Get(pf.LFN)

			failed, ok := transfers(reg, "error"), transfers(reg, "ok")
			replicated := reg.Counter(core.SiteMetricsPrefix+"_transfer_bytes_total", "").Value()
			crcFails := reg.Counter(gridftp.ClientMetricsPrefix+"_crc_failures_total", "").Value()
			hist := anl.TransferHistory()
			if failed < 1 || crcFails != failed || len(hist) == 0 || !hist[0].Failed ||
				hist[0].Source != cern.DataAddr() || !strings.Contains(hist[0].Error, "checksum") {
				t.Fatalf("drifted leg not recorded as failed: %d failed legs counted, %d CRC failures, history %+v", failed, crcFails, hist)
			}
			dest := filepath.Join(anl.DataDir(), "runs", "drift.db")
			if _, serr := os.Stat(dest + gridftp.PartSuffix); !os.IsNotExist(serr) {
				t.Fatalf("staging file left behind: %v", serr)
			}
			locs, lerr := g.Catalog.Locations(pf.LFN)
			if lerr != nil {
				t.Fatal(lerr)
			}
			registered := false
			for _, l := range locs {
				registered = registered || strings.Contains(l, anl.DataAddr())
			}

			if tc.goodReplica {
				if err != nil {
					t.Fatalf("Get did not fail over: %v", err)
				}
				if got, _ := os.ReadFile(dest); !bytes.Equal(got, data) {
					t.Fatal("landed bytes are not the published ones")
				}
				if ok != 1 || failed != 1 || replicated != int64(len(data)) || !registered {
					t.Fatalf("transfer legs %d ok + %d failed, %d bytes replicated, registered %v", ok, failed, replicated, registered)
				}
				return
			}
			if !errors.Is(err, gridftp.ErrChecksum) {
				t.Fatalf("Get = %v, want ErrChecksum", err)
			}
			if _, serr := os.Stat(dest); !os.IsNotExist(serr) {
				t.Fatalf("drifted bytes left at destination: %v", serr)
			}
			for _, p := range []string{parity.SidecarPath(dest), parity.SidecarPath(dest) + gridftp.PartSuffix} {
				if _, serr := os.Stat(p); !os.IsNotExist(serr) {
					t.Fatalf("drifted bytes left a sidecar: %s (%v)", p, serr)
				}
			}
			if ok != 0 || replicated != 0 || anl.HasFile(pf.LFN) || registered {
				t.Fatalf("transfer legs %d ok, %d bytes replicated, has %v, registered %v", ok, replicated, anl.HasFile(pf.LFN), registered)
			}
		})
	}
}

// TestStalledLegIsRecordedAsStall: a leg the stall watchdog cancels is one
// failed TransferRecord that names the stall, not the cancellation the
// watchdog used to end it, and the pull still completes on the retry.
func TestStalledLegIsRecordedAsStall(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	data := testbed.MakeData(300_000, 50)
	pf := publish(t, g, cern, "runs/stall.db", data, core.PublishOptions{})

	// The first passive-mode data connection black-holes its reads.
	known := map[string]bool{g.CatalogAddr: true, cern.Addr(): true, cern.DataAddr(): true}
	var mu sync.Mutex
	dataConns := 0
	inj := faults.New(1, func(c faults.ConnInfo) faults.Plan {
		mu.Lock()
		defer mu.Unlock()
		if known[c.Addr] {
			return faults.Plan{}
		}
		if dataConns++; dataConns == 1 {
			return faults.Partition(64 << 10)
		}
		return faults.Plan{}
	})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{
		Faults: inj, Parallelism: 1, HedgeDeadline: 200 * time.Millisecond, Metrics: reg,
		Retry: retry.Policy{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("pull did not recover from the stall: %v", err)
	}
	hist := anl.TransferHistory()
	if len(hist) != 2 || !hist[0].Failed || !strings.Contains(hist[0].Error, "stalled") || hist[1].Failed {
		t.Fatalf("history = %+v, want one stalled leg then one good one", hist)
	}
	if failed, ok := transfers(reg, "error"), transfers(reg, "ok"); failed != 1 || ok != 1 {
		t.Fatalf("transfer legs counted: %d failed + %d ok, want 1 failed + 1 ok", failed, ok)
	}
}

// TestSilentSourceIsCutAsStall: the stall clock runs from the source's
// 150 reply, so a source that accepts the transfer, pairs its data stream
// and then delivers not one byte down it is cut at the stall deadline and
// retried, not waited on for ever.
func TestSilentSourceIsCutAsStall(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	pf := publish(t, g, cern, "runs/silent.db", testbed.MakeData(300_000, 52), core.PublishOptions{})

	// The first passive-mode data connection never yields a byte.
	known := map[string]bool{g.CatalogAddr: true, cern.Addr(): true, cern.DataAddr(): true}
	var mu sync.Mutex
	dataConns := 0
	dial := func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil || known[addr] {
			return c, err
		}
		mu.Lock()
		defer mu.Unlock()
		if dataConns++; dataConns == 1 {
			return &silentConn{Conn: c, closed: make(chan struct{})}, nil
		}
		return c, nil
	}
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{
		DialFunc: dial, Parallelism: 1, HedgeDeadline: 200 * time.Millisecond,
		Retry: retry.Policy{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("pull did not recover from the silent source: %v", err)
	}
	hist := anl.TransferHistory()
	if len(hist) != 2 || !hist[0].Failed || !strings.Contains(hist[0].Error, "stalled") || hist[1].Failed {
		t.Fatalf("history = %+v, want one stalled leg then one good one", hist)
	}
}

// silentConn is a connection whose reads block until it is closed.
type silentConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *silentConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *silentConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestSlowSetUpIsNotAStall: the stall clock starts at the source's 150
// reply. A single-source pull whose GridFTP dial takes longer than the stall
// deadline is setting up, not stalled: it lands with no failed leg, under
// the default retry policy.
func TestSlowSetUpIsNotAStall(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	pf := publish(t, g, cern, "runs/slow-dial.db", testbed.MakeData(100_000, 51), core.PublishOptions{})

	inj := faults.New(1, func(c faults.ConnInfo) faults.Plan {
		if c.Addr == cern.DataAddr() {
			return faults.Plan{DialDelay: 500 * time.Millisecond}
		}
		return faults.Plan{}
	})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Faults: inj, HedgeDeadline: 200 * time.Millisecond, Metrics: reg})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("pull with a slow dial: %v", err)
	}
	hist := anl.TransferHistory()
	if len(hist) != 1 || hist[0].Failed {
		t.Fatalf("history = %+v, want one good leg", hist)
	}
	if failed, ok := transfers(reg, "error"), transfers(reg, "ok"); failed != 0 || ok != 1 {
		t.Fatalf("transfer legs counted: %d failed + %d ok, want 0 failed + 1 ok", failed, ok)
	}
}

// TestLandingSurvivesConcurrentEviction pins the landing order: a pool too
// small for two concurrent pulls evicts one file while the other is still
// landing, possibly the very file that is mid-landing. Whatever the pool
// does, a replica the site says it holds on disk must have its bytes there.
func TestLandingSurvivesConcurrentEviction(t *testing.T) {
	const size = 8 << 20
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	fnal := addSite(t, g, "fnal.gov", testbed.SiteOptions{
		WithMSS: true, MSSCapacity: 12 << 20, PullWorkers: 2, ParityK: 8, ParityM: 2,
	})
	for i := 0; i < 8; i++ {
		var lfns [2]string
		for j := range lfns {
			rel := fmt.Sprintf("evict/f%d-%d.db", i, j)
			lfns[j] = publish(t, g, cern, rel, testbed.MakeData(size, int64(2*i+j)), core.PublishOptions{}).LFN
		}
		var wg sync.WaitGroup
		for j, lfn := range lfns {
			wg.Add(1)
			go func(j int, lfn string) {
				defer wg.Done()
				time.Sleep(time.Duration(j*(i+1)) * 5 * time.Millisecond)
				fnal.Get(lfn) // may fail for want of pool space; the invariant below holds either way
			}(j, lfn)
		}
		wg.Wait()
		for _, fi := range fnal.LocalFiles() {
			if fi.State != core.StateDisk || !fnal.HasFile(fi.LFN) {
				continue
			}
			if _, err := os.Stat(filepath.Join(fnal.DataDir(), fi.Path)); err != nil {
				t.Fatalf("round %d: %s is cataloged on disk but its bytes are gone: %v", i, fi.LFN, err)
			}
		}
	}
}

// TestFailedLandingIsNotRevealed: a replica whose journal record cannot be
// appended must not become visible. With the journal severed every Get
// fails — the first one must not leave an entry behind for the second to
// be satisfied by — and the site is never listed as a location.
func TestFailedLandingIsNotRevealed(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	reg := obs.NewRegistry()
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{Durable: true, Metrics: reg})
	pf := publish(t, g, cern, "unjournaled.db", testbed.MakeData(10_000, 24), core.PublishOptions{})

	anl.SeverJournal()
	for attempt := 1; attempt <= 2; attempt++ {
		if err := anl.Get(pf.LFN); err == nil || !strings.Contains(err.Error(), "journal") {
			t.Fatalf("Get %d with a severed journal = %v, want a journal error", attempt, err)
		}
		if anl.HasFile(pf.LFN) {
			t.Fatalf("after Get %d: an unjournaled replica is revealed", attempt)
		}
	}
	if len(anl.LocalFiles()) != 0 {
		t.Fatalf("local catalog = %+v, want empty", anl.LocalFiles())
	}
	if locs, _ := g.Catalog.Locations(pf.LFN); len(locs) != 1 {
		t.Fatalf("locations = %v, want the producer only", locs)
	}
	if failed := reg.Gauge("gdmp_journal_failed", "").Value(); failed != 1 {
		t.Fatalf("gdmp_journal_failed = %d, want 1", failed)
	}
}

// TestNotifyWithHostileCount: the entry count of a gdmp.notify body comes
// from the peer. A four-byte list claiming 2^32-1 entries must cost an
// error reply, not the memory to hold them.
func TestNotifyWithHostileCount(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	var e rpc.Encoder
	e.String("cern.ch")
	e.Uint32(1<<32 - 1)
	if _, err := cern.CallRemote(anl.Addr(), core.MethodNotify, &e); err == nil {
		t.Fatal("truncated notify with an oversized count was accepted")
	}
	if _, err := cern.Ping(anl.Addr()); err != nil {
		t.Fatalf("site did not survive the hostile notify: %v", err)
	}
}

func TestConcurrentGetsCoalesce(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})
	pf := publish(t, g, cern, "hot.db", testbed.MakeData(500_000, 22), core.PublishOptions{})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := anl.Get(pf.LFN); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Only one extra replica was registered despite 8 concurrent Gets.
	locs, _ := g.Catalog.Locations(pf.LFN)
	if len(locs) != 2 {
		t.Fatalf("Locations = %v", locs)
	}
}

func TestCustomFileTypeHooksRun(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	anl := addSite(t, g, "anl.gov", testbed.SiteOptions{})

	hooks := &recordingType{}
	if err := anl.RegisterFileType(hooks); err != nil {
		t.Fatal(err)
	}
	if err := cern.RegisterFileType(&recordingType{}); err != nil {
		t.Fatal(err)
	}
	if err := cern.RegisterFileType(&recordingType{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	data := testbed.MakeData(10_000, 23)
	pf := publish(t, g, cern, "oracle1.dbf", data, core.PublishOptions{FileType: "oracle"})
	if err := anl.Get(pf.LFN); err != nil {
		t.Fatalf("Get(custom type): %v", err)
	}
	if hooks.pre != 1 || hooks.post != 1 {
		t.Fatalf("hooks ran pre=%d post=%d", hooks.pre, hooks.post)
	}
}

// recordingType counts pipeline hook invocations (an "oracle"-style plug-in).
type recordingType struct {
	mu        sync.Mutex
	pre, post int
}

func (r *recordingType) Name() string { return "oracle" }

func (r *recordingType) PreProcess(*core.Site, string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pre++
	return nil
}

func (r *recordingType) PostProcess(*core.Site, string, string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.post++
	return nil
}

func TestQueryThroughSite(t *testing.T) {
	g := newGrid(t)
	cern := addSite(t, g, "cern.ch", testbed.SiteOptions{})
	publish(t, g, cern, "big.db", testbed.MakeData(500_000, 24), core.PublishOptions{})
	publish(t, g, cern, "small.db", testbed.MakeData(100, 25), core.PublishOptions{})
	got, err := cern.Query("(size>=100000)")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.Contains(got[0].Name, "big.db") {
		t.Fatalf("Query = %v", got)
	}
}

func TestSiteConfigValidation(t *testing.T) {
	bad := []core.Config{
		{},
		{Name: "x"},
		{Name: "x", DataDir: "y"},
	}
	for i, cfg := range bad {
		if _, err := core.NewSite(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
