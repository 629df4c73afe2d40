// Pool-eviction crash consistency: a site killed between a pool eviction
// and its replica-catalog withdrawal leaves a dangling RC location (the
// journal already recorded the removal, the catalog call never landed).
// Recovery plus one scrub/anti-entropy round must converge: the dangling
// location is withdrawn, no orphaned bytes survive on disk, and the site
// keeps serving what it still holds.
package gdmp_test

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gdmp/internal/testbed"
)

// rcBreaker is a DialFunc that can sever the replica catalog on command:
// block() refuses new dials to the catalog address AND closes the live
// connections it has seen, so even a site holding a persistent catalog
// connection (dialed once at startup) loses it mid-operation.
type rcBreaker struct {
	rcAddr string

	mu      sync.Mutex
	blocked bool
	conns   []net.Conn
}

func (b *rcBreaker) dial(network, addr string) (net.Conn, error) {
	b.mu.Lock()
	if addr == b.rcAddr && b.blocked {
		b.mu.Unlock()
		return nil, errors.New("rc unreachable (test breaker)")
	}
	b.mu.Unlock()
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if addr == b.rcAddr {
		b.conns = append(b.conns, c)
	}
	b.mu.Unlock()
	return c, nil
}

func (b *rcBreaker) block() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blocked = true
	for _, c := range b.conns {
		c.Close()
	}
	b.conns = nil
}

func (b *rcBreaker) unblock() {
	b.mu.Lock()
	b.blocked = false
	b.mu.Unlock()
}

// TestCatalogSessionRedials: once the site's catalog connection is severed
// (a replicad restart, a broken link), the next catalog call after the
// catalog is reachable again redials — with the digest pusher off, which
// used to be the only thing that ever reconnected.
func TestCatalogSessionRedials(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	breaker := &rcBreaker{rcAddr: g.CatalogAddr}
	site, err := g.AddSite("cern.ch", testbed.SiteOptions{DialFunc: breaker.dial})
	if err != nil {
		t.Fatal(err)
	}
	publishData(t, g, site, "redial/a.db", testbed.MakeData(2_000, 1))

	breaker.block()
	if _, err := site.Query("(size>=1)"); err == nil {
		t.Fatal("query over a severed catalog session succeeded")
	}
	breaker.unblock()

	// Several callers find the latched session at once: each gets an
	// answer, whoever redials.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := site.Query("(size>=1)"); err != nil || len(got) != 1 {
				t.Errorf("query after the catalog came back = %d files, %v; want 1", len(got), err)
			}
		}()
	}
	wg.Wait()
	b := publishData(t, g, site, "redial/b.db", testbed.MakeData(3_000, 2))
	if !locationAt(t, g, b.LFN, site.DataAddr()) {
		t.Fatal("publish after the catalog came back registered no location")
	}
}

func TestCrashRestartPoolEvictionWithdrawal(t *testing.T) {
	seed := crashSeed(t)
	g, err := testbed.NewGrid(crashDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{
		Retry:                  fastRetry(2),
		NotifyFailureThreshold: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The consumer's pool holds one pulled replica OR one staged tape
	// file, never both — staging forces the eviction.
	const fileSize = 6000
	breaker := &rcBreaker{rcAddr: g.CatalogAddr}
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		Durable:     true,
		RecordSyncs: powerCuts(t),
		WithMSS:     true,
		MSSCapacity: 10_000,
		DialFunc:    breaker.dial,
		Retry:       fastRetry(1),
	})
	if err != nil {
		t.Fatal(err)
	}

	data := testbed.MakeData(fileSize, seed)
	pf := publishData(t, g, prod, "pool/a.db", data)
	// Subscribed after the publish: no pending notification competes with
	// the explicit Get, but the producer's anti-entropy round will still
	// visit this consumer as a peer.
	if err := cons.SubscribeTo(prod.Addr()); err != nil {
		t.Fatal(err)
	}

	if err := cons.Get(pf.LFN); err != nil {
		t.Fatal(err)
	}
	if !cons.Pool().OnDisk("pool/a.db") {
		t.Fatal("pulled replica did not land in the disk pool")
	}

	// A tape file whose stage must evict the pulled replica. Staging
	// needs no catalog call, so severing the catalog first pins the crash
	// window deterministically: the eviction's journal record lands, the
	// RC withdrawal cannot.
	if err := cons.Pool().PutTape("scratch/t1.dat", testbed.MakeData(fileSize, seed+1)); err != nil {
		t.Fatal(err)
	}
	breaker.block()
	if _, err := cons.Pool().StageContext(context.Background(), "scratch/t1.dat"); err != nil {
		t.Fatalf("stage with catalog dark: %v", err)
	}
	cons.Pool().Release("scratch/t1.dat")

	// The eviction went through locally...
	if cons.HasFile(pf.LFN) {
		t.Fatal("evicted replica still in the local catalog")
	}
	if _, err := os.Stat(filepath.Join(cons.DataDir(), "pool", "a.db")); !os.IsNotExist(err) {
		t.Fatalf("evicted bytes still on disk: %v", err)
	}
	// ...but the replica catalog still advertises the consumer: the
	// dangling location this test is about.
	if !locationAt(t, g, pf.LFN, cons.DataAddr()) {
		t.Fatal("test premise broken: RC withdrawal went through despite the severed catalog")
	}

	// A crash in the window, then restart on the same directories.
	crash(t, g, "anl.gov")
	breaker.unblock()
	cons, err = g.RestartSite("anl.gov")
	if err != nil {
		t.Fatal(err)
	}

	// Recovery agrees with the journal: the evicted replica stays gone —
	// not resurrected, not quarantined, no bytes on disk.
	if cons.HasFile(pf.LFN) {
		t.Fatal("recovery resurrected the evicted replica")
	}
	if _, err := os.Stat(filepath.Join(cons.DataDir(), "pool", "a.db")); !os.IsNotExist(err) {
		t.Fatalf("orphaned replica bytes survived recovery: %v", err)
	}

	// One self-healing round converges the grid: the consumer's scrub has
	// nothing to re-assert for the file, and the producer's anti-entropy
	// exchange sees a location pointing at a peer whose digest denies the
	// file — and withdraws it.
	if _, err := cons.ScrubPass(ctx); err != nil {
		t.Fatalf("consumer scrub: %v", err)
	}
	rep, err := prod.AntiEntropyPass(ctx)
	if err != nil {
		t.Fatalf("producer anti-entropy: %v", err)
	}
	if rep.Dangling < 1 {
		t.Fatalf("anti-entropy withdrew %d dangling locations, want >= 1 (%+v)", rep.Dangling, rep)
	}
	if locationAt(t, g, pf.LFN, cons.DataAddr()) {
		t.Fatal("dangling RC location survived the anti-entropy round")
	}
	if !locationAt(t, g, pf.LFN, prod.DataAddr()) {
		t.Fatal("anti-entropy withdrew the producer's own valid location")
	}

	// The reborn consumer still serves demand: a fresh Get re-pulls the
	// file (evicting the staged tape file in turn) and re-registers it.
	if err := cons.Get(pf.LFN); err != nil {
		t.Fatalf("re-pull after convergence: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(cons.DataDir(), "pool", "a.db"))
	if err != nil || string(got) != string(data) {
		t.Fatalf("re-pulled content wrong: %v", err)
	}
	waitUntil(t, 5*time.Second, "re-registered RC location", func() bool {
		return locationAt(t, g, pf.LFN, cons.DataAddr())
	})
}

// locationAt reports whether the replica catalog lists a location of lfn
// at the given data address.
func locationAt(t *testing.T, g *testbed.Grid, lfn, dataAddr string) bool {
	t.Helper()
	locs, err := g.Catalog.Locations(lfn)
	if err != nil {
		t.Fatalf("locations of %s: %v", lfn, err)
	}
	for _, loc := range locs {
		if strings.Contains(loc, dataAddr) {
			return true
		}
	}
	return false
}
