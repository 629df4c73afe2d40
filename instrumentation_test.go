// Integration tests for the obs instrumentation layer: the metrics the
// system reports must match, byte for byte and op for op, what actually
// happened on the wire and in the catalog.
package gdmp_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/obs"
	"gdmp/internal/replica"
	"gdmp/internal/rpc"
	"gdmp/internal/testbed"
)

// metricValue extracts the value of one exposition line ("name value" or
// "name{labels} value") from a registry dump, or -1 if absent.
func metricValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// TestTransferAccountingExact moves a file of known odd size over GridFTP
// with a fixed stream count and asserts the instrumentation reports
// exactly those bytes and exactly that parallelism, on both ends.
func TestTransferAccountingExact(t *testing.T) {
	const (
		size    = 1_234_567
		streams = 4
	)
	reg := obs.NewRegistry()

	ca, err := gsi.NewCA("obs-test", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	roots := []*gsi.Certificate{ca.Certificate()}
	serverCred, err := ca.Issue("gridftpd/obs", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	clientCred, err := ca.Issue("obs-client", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	acl := gsi.NewACL()
	acl.AllowAll(gridftp.OpRead, gridftp.OpWrite)
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "exact.db"), testbed.MakeData(size, 11), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := gridftp.NewServer(gridftp.ServerConfig{
		Root: root, Cred: serverCred, TrustRoots: roots, ACL: acl, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := gridftp.Dial(ln.Addr().String(), clientCred, roots,
		gridftp.WithParallelism(streams), gridftp.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dst := make(writerAtBuffer, size)
	stats, err := cl.Get("exact.db", dst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != size {
		t.Fatalf("TransferStats.Bytes = %d, want %d", stats.Bytes, size)
	}

	transfers := reg.CounterVec(gridftp.ClientMetricsPrefix+"_transfers_total", "", "direction", "outcome")
	if got := transfers.WithLabelValues("get", "ok").Value(); got != 1 {
		t.Errorf("client transfers{get,ok} = %d, want 1", got)
	}
	if got := transfers.WithLabelValues("get", "error").Value(); got != 0 {
		t.Errorf("client transfers{get,error} = %d, want 0", got)
	}
	if got := reg.CounterVec(gridftp.ClientMetricsPrefix+"_bytes_total", "", "direction").WithLabelValues("get").Value(); got != size {
		t.Errorf("client bytes{get} = %d, want exactly %d", got, size)
	}

	text := reg.Text()
	checks := map[string]float64{
		`gdmp_gridftp_client_bytes_total{direction="get"}`:              size,
		`gdmp_gridftp_client_streams_sum`:                               streams,
		`gdmp_gridftp_client_streams_count`:                             1,
		`gdmp_gridftp_server_bytes_total{direction="sent"}`:             size,
		`gdmp_gridftp_server_transfers_total{verb="ERET",outcome="ok"}`: 1,
		`gdmp_gridftp_server_streams_sum`:                               streams,
	}
	for series, want := range checks {
		if got := metricValue(text, series); got != want {
			t.Errorf("%s = %v, want %v\nexposition:\n%s", series, got, want, text)
		}
	}
}

// TestCatalogLookupSingleOpCounter asserts one catalog lookup moves the op
// counters by exactly one increment, on exactly the lookup series.
func TestCatalogLookupSingleOpCounter(t *testing.T) {
	reg := obs.NewRegistry()
	cat := replica.New(replica.Options{Registry: reg})
	if err := cat.Register("lfn://t/one", map[string]string{replica.AttrSize: "1"}); err != nil {
		t.Fatal(err)
	}

	sumOps := func() float64 {
		var total float64
		for _, line := range strings.Split(reg.Text(), "\n") {
			if !strings.HasPrefix(line, replica.CatalogMetricsPrefix+"_ops_total{") {
				continue
			}
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			total += v
		}
		return total
	}

	before := sumOps()
	if _, err := cat.Lookup("lfn://t/one"); err != nil {
		t.Fatal(err)
	}
	after := sumOps()

	if after-before != 1 {
		t.Errorf("lookup moved op counters by %v, want exactly 1", after-before)
	}
	ops := reg.CounterVec(replica.CatalogMetricsPrefix+"_ops_total", "", "op", "outcome")
	if got := ops.WithLabelValues("lookup", "ok").Value(); got != 1 {
		t.Errorf("ops{lookup,ok} = %d, want 1", got)
	}
	if got := ops.WithLabelValues("lookup", "error").Value(); got != 0 {
		t.Errorf("ops{lookup,error} = %d, want 0", got)
	}
	// The latency histogram saw the same single operation.
	if got := metricValue(reg.Text(), replica.CatalogMetricsPrefix+`_op_seconds_count{op="lookup"}`); got != 1 {
		t.Errorf("op_seconds_count{op=lookup} = %v, want 1", got)
	}
}

// TestSiteMetricsEndToEnd runs a publish/subscribe/replicate cycle with
// per-site registries and checks the site-level series, including the
// metrics dump served over the authenticated control channel.
func TestSiteMetricsEndToEnd(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prodReg, consReg := obs.NewRegistry(), obs.NewRegistry()
	cern, err := g.AddSite("cern.ch", testbed.SiteOptions{Metrics: prodReg})
	if err != nil {
		t.Fatal(err)
	}
	anl, err := g.AddSite("anl.gov", testbed.SiteOptions{Metrics: consReg})
	if err != nil {
		t.Fatal(err)
	}
	if err := anl.SubscribeTo(cern.Addr()); err != nil {
		t.Fatal(err)
	}

	const size = 200_000
	if _, err := g.WriteSiteFile("cern.ch", "obs.db", testbed.MakeData(size, 13)); err != nil {
		t.Fatal(err)
	}
	pf, err := cern.Publish("obs.db", core.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The notification queues the file; draining the queue replicates it
	// and returns the gauge to zero.
	waitPending := time.Now().Add(5 * time.Second)
	for len(anl.Pending()) == 0 && time.Now().Before(waitPending) {
		time.Sleep(time.Millisecond)
	}
	if n, err := anl.ProcessPending(); err != nil || n != 1 {
		t.Fatalf("ProcessPending = %d, %v", n, err)
	}
	if !anl.HasFile(pf.LFN) {
		t.Fatal("file missing after ProcessPending")
	}

	prod := prodReg.Text()
	for series, want := range map[string]float64{
		core.SiteMetricsPrefix + `_publishes_total{outcome="ok"}`:     1,
		core.SiteMetricsPrefix + `_publish_seconds_count`:             1,
		core.SiteMetricsPrefix + `_notifications_total{outcome="ok"}`: 1,
		core.SiteMetricsPrefix + `_subscribers`:                       1,
		`gdmp_gridftp_server_bytes_total{direction="sent"}`:           size,
	} {
		if got := metricValue(prod, series); got != want {
			t.Errorf("producer %s = %v, want %v", series, got, want)
		}
	}
	cons := consReg.Text()
	for series, want := range map[string]float64{
		core.SiteMetricsPrefix + `_replications_total{outcome="ok"}`:        1,
		core.SiteMetricsPrefix + `_notifications_received_total`:            1,
		core.SiteMetricsPrefix + `_pending_queue_depth`:                     0,
		`gdmp_gridftp_client_bytes_total{direction="get"}`:                  size,
		`gdmp_gridftp_client_transfers_total{direction="get",outcome="ok"}`: 1,
	} {
		if got := metricValue(cons, series); got != want {
			t.Errorf("consumer %s = %v, want %v", series, got, want)
		}
	}

	// The same dump is served remotely (what `gdmp stats` renders).
	cred, err := g.CA.Issue("operator", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := rpc.DialContext(context.Background(), cern.Addr(), cred, g.Roots, rpc.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d, err := cl.CallContext(context.Background(), core.MethodMetrics, nil)
	if err != nil {
		t.Fatal(err)
	}
	remote := d.String()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(remote, core.SiteMetricsPrefix+`_publishes_total{outcome="ok"}`); got != 1 {
		t.Errorf("remote dump publishes_total = %v, want 1", got)
	}
	// The Request Manager's own instrumentation counted the scrape.
	if got := metricValue(prodReg.Text(),
		fmt.Sprintf(`gdmp_rpc_server_requests_total{method="%s",status="ok"}`, core.MethodMetrics)); got < 1 {
		t.Errorf("rpc requests_total{gdmp.metrics,ok} = %v, want >= 1", got)
	}
}

// TestJournaledSiteAndCatalogKeepTheirSeries opens a journaled site and a
// journaled catalog service in one process, gives neither a registry, and
// registers five files (each a register and an add-replica, two catalog
// journal appends) through a catalog client: the site's journal series
// must not move, because the catalog's journal records into the
// catalog's own registry.
func TestJournaledSiteAndCatalogKeepTheirSeries(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	site, err := g.AddSite("cern.ch", testbed.SiteOptions{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	hostCred, err := g.CA.Issue("replicad/second", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := replica.StartHost(replica.HostConfig{
		Listen:     "127.0.0.1:0",
		StateDir:   filepath.Join(t.TempDir(), "catalog"),
		Cred:       hostCred,
		TrustRoots: g.Roots,
		ACL:        g.ACL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	cred, err := g.CA.Issue("operator", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := replica.Dial(host.Addr().String(), cred, g.Roots)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	appends := func() float64 { return metricValue(site.Metrics().Text(), "gdmp_journal_appends_total") }
	before := appends()
	if before < 0 {
		t.Fatal("the journaled site registers no gdmp_journal_appends_total")
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		lfn := fmt.Sprintf("lfn://registry/f%d", i)
		if err := rc.Register(ctx, lfn, nil); err != nil {
			t.Fatal(err)
		}
		if err := rc.AddReplica(ctx, lfn, "gridftp://127.0.0.1:1/f"); err != nil {
			t.Fatal(err)
		}
	}
	if after := appends(); after != before {
		t.Errorf("site gdmp_journal_appends_total went %v -> %v over five catalog registrations; want it unmoved", before, after)
	}
}

// TestSitesInOneGridKeepTheirSeries builds two sites with no registry in
// one grid: one publishes, and only its own publish counter moves.
func TestSitesInOneGridKeepTheirSeries(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cern, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	anl, err := g.AddSite("anl.gov", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteSiteFile("cern.ch", "one.db", testbed.MakeData(1000, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cern.Publish("one.db", core.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	series := core.SiteMetricsPrefix + `_publishes_total{outcome="ok"}`
	if got := metricValue(cern.Metrics().Text(), series); got != 1 {
		t.Errorf("publisher %s = %v, want 1", series, got)
	}
	if got := metricValue(anl.Metrics().Text(), series); got > 0 {
		t.Errorf("the other site's %s = %v, want 0", series, got)
	}
}
