// Command gdmpd runs a complete GDMP site daemon (Section 4): the GDMP
// server with its subscription, notification, catalog, and staging
// services, plus the site's GridFTP server over the local disk pool,
// registered against the Grid's central replica catalog.
//
// Usage:
//
//	gdmpd -name cern.ch -data /pool -rc replicad.host:39000 \
//	      -cred certs/cern.pem -ca certs/ca.pem \
//	      [-listen :38000] [-ftp-listen :2811] [-metrics :9090] \
//	      [-state-dir /var/lib/gdmp] [-drain-timeout 30s] \
//	      [-tape /tape -pool-capacity 1073741824] \
//	      [-prefetch 3] [-federation] \
//	      [-auto] [-parallel 4] [-tcp-buffer 1048576] [-gridmap gridmap] \
//	      [-retry-attempts 3 -retry-base 50ms -retry-max 2s] \
//	      [-transfer-attempts 3] [-notify-failures 3] \
//	      [-scrub-interval 1h -scrub-rate 8388608] \
//	      [-anti-entropy-interval 6h] \
//	      [-quarantine-max-age 168h -quarantine-max-count 1024] \
//	      [-parity-k 8 -parity-m 2]
//
// With -tape, the site runs a Mass Storage System: the pool acts as a cache
// and files are staged from the tape directory on demand (least recently
// used files are evicted first) and -prefetch N warms a collection's
// remaining members after N pool misses hit it. With -federation, the
// site maintains an object database federation and can replicate
// "objectivity" files (arrivals are attached automatically).
// With -metrics, the daemon serves its instrumentation registry in the
// Prometheus text exposition format at http://<addr>/metrics (the same
// dump `gdmp stats` fetches over the authenticated control channel).
//
// With -state-dir, the site is crash-safe: every acknowledged mutation
// (publications, subscriptions, notification queues, pending pulls, the
// local catalog) is journaled under the directory before it is acked, and
// a restart replays the journal, quarantines suspect files under
// <state-dir>/quarantine, and requeues unfinished transfers. SIGTERM then
// drains gracefully: admissions stop, in-flight transfers get
// -drain-timeout to finish, and whatever remains stays journaled for the
// next start (SIGINT still shuts down immediately).
//
// With -scrub-interval, the site self-heals: a background scrubber
// re-reads every cataloged replica at the -scrub-rate byte pace and
// verifies its CRC, quarantining corrupt bytes and re-replicating from a
// surviving location. With -anti-entropy-interval, the site periodically
// swaps compact (LFN, size, CRC) digests with its producers and
// subscribers, pulling files whose notifications were lost and
// withdrawing dangling replica-catalog locations. -quarantine-max-age
// and -quarantine-max-count bound the quarantine directory. `gdmp fsck`
// triggers a full on-demand integrity pass.
//
// With -parity-k/-parity-m, every published or landed replica gets an
// erasure-coded parity sidecar (k data + m parity blocks, Reed-Solomon
// over GF(2^8)): the scrubber then verifies block-by-block and rebuilds
// up to m damaged blocks in place from local bytes, falling back to the
// WAN re-pull only when the damage exceeds the parity budget or the
// sidecar itself is unusable.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/core"
	"gdmp/internal/gsi"
	"gdmp/internal/health"
	"gdmp/internal/mss"
	"gdmp/internal/objectstore"
	"gdmp/internal/objrep"
	"gdmp/internal/obs"
	"gdmp/internal/retry"
	"gdmp/internal/xfer"
)

// settings is what the command line decides: the site's core.Config and
// the tape store's mss.Config, bound to their flags directly, plus the
// daemon-only values (files to load, the metrics listener, shutdown grace)
// that no Config field holds.
type settings struct {
	site core.Config
	tape mss.Config

	credPath, caPath, gridmap string
	metricsAddr               string
	federation                bool
	drainTimeout              time.Duration
}

// registerFlags binds every gdmpd flag. A flag whose default belongs to a
// package takes that package's constant, so -h prints the value the
// package would apply to a zero field.
func registerFlags(fs *flag.FlagSet, s *settings) {
	c := &s.site
	fs.StringVar(&c.Name, "name", "", "site name, e.g. cern.ch (required)")
	fs.StringVar(&c.DataDir, "data", "", "disk pool directory (required)")
	fs.StringVar(&c.ReplicaCatalog, "rc", "", "replica catalog address (required)")
	fs.StringVar(&s.credPath, "cred", "", "site credential file (required)")
	fs.StringVar(&s.caPath, "ca", "", "trust anchor certificate (required)")
	fs.StringVar(&c.GDMPListen, "listen", ":38000", "GDMP control address")
	fs.StringVar(&c.FTPListen, "ftp-listen", ":2811", "GridFTP data address")
	fs.StringVar(&s.tape.TapeDir, "tape", "", "tape directory (enables the MSS)")
	fs.Int64Var(&s.tape.PoolCapacity, "pool-capacity", 1<<30, "disk pool capacity in bytes (with -tape)")
	fs.IntVar(&c.PrefetchThreshold, "prefetch", 0, "pool misses per collection before prefetching the rest (0 = off)")
	fs.BoolVar(&s.federation, "federation", false, "run an object database federation")
	fs.BoolVar(&c.AutoReplicate, "auto", false, "auto-replicate files on notification")
	fs.IntVar(&c.Parallelism, "parallel", core.DefaultParallelism, "parallel TCP streams for transfers")
	fs.IntVar(&c.BufferBytes, "tcp-buffer", 0, "TCP socket buffer size (0 = OS default)")
	fs.BoolVar(&c.AutoTuneBuffers, "auto-tune", false, "negotiate TCP buffers per source (RTT x bandwidth)")
	fs.StringVar(&s.gridmap, "gridmap", "", "authorization gridmap (default: allow all)")
	fs.StringVar(&s.metricsAddr, "metrics", "", "serve /metrics over HTTP on this address (empty = off)")
	c.Retry = retry.DefaultPolicy()
	fs.IntVar(&c.Retry.Attempts, "retry-attempts", c.Retry.Attempts, "attempt cap for retried network operations")
	fs.DurationVar(&c.Retry.BaseDelay, "retry-base", c.Retry.BaseDelay, "initial backoff between retries")
	fs.DurationVar(&c.Retry.MaxDelay, "retry-max", c.Retry.MaxDelay, "backoff ceiling between retries")
	fs.IntVar(&c.TransferAttempts, "transfer-attempts", core.DefaultTransferAttempts, "restart attempts per file transfer")
	fs.IntVar(&c.NotifyFailureThreshold, "notify-failures", core.DefaultNotifyFailureThreshold, "consecutive notification failures before a subscriber is suspect")
	fs.IntVar(&c.PullWorkers, "pull-workers", xfer.DefaultWorkers, "concurrent pull replications")
	fs.IntVar(&c.PerSourceLimit, "per-source", 0, "max concurrent transfers per source site (0 = unlimited)")
	fs.StringVar(&c.StateDir, "state-dir", "", "journal directory for crash-safe state (empty = no persistence)")
	fs.DurationVar(&c.ScrubInterval, "scrub-interval", 0, "background integrity-scrub period (0 = off)")
	fs.Int64Var(&c.ScrubRateBytes, "scrub-rate", 8<<20, "scrubber disk-read cap in bytes/second (0 = unlimited)")
	fs.DurationVar(&c.AntiEntropyInterval, "anti-entropy-interval", 0, "digest-exchange period with producers and subscribers (0 = off)")
	fs.DurationVar(&c.QuarantineMaxAge, "quarantine-max-age", 168*time.Hour, "sweep quarantined files older than this (0 = keep forever)")
	fs.IntVar(&c.QuarantineMaxCount, "quarantine-max-count", 1024, "keep at most this many quarantined files (0 = unlimited)")
	fs.IntVar(&c.ParityK, "parity-k", 0, "parity sidecar data blocks per file (0 = parity off)")
	fs.IntVar(&c.ParityM, "parity-m", 0, "parity blocks per file; scrub heals up to this many damaged blocks locally")
	fs.DurationVar(&s.drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM lets in-flight transfers finish")
	fs.DurationVar(&c.StallDeadline, "stall-deadline", core.DefaultStallDeadline, "cold-start deadline after which a pull moving no bytes fails over to another replica (negative = off)")
	fs.IntVar(&c.Health.FailureThreshold, "breaker-failures", health.DefaultFailureThreshold, "consecutive failures that open a peer's circuit breaker")
	fs.DurationVar(&c.Health.ReopenBase, "breaker-reopen", health.DefaultReopenBase, "base delay before an open breaker admits a probe")
	fs.DurationVar(&c.Health.ReopenMax, "breaker-reopen-max", health.DefaultReopenMax, "ceiling on the decorrelated reopen delay")
	fs.IntVar(&c.Health.ProbeSuccesses, "breaker-probes", health.DefaultProbeSuccesses, "probe successes that close a half-open breaker")
	fs.IntVar(&c.RPCMaxConns, "rpc-max-conns", 0, "max concurrent GDMP server connections (0 = unlimited)")
	fs.IntVar(&c.Admission.ControlSlots, "admit-control", admission.DefaultControlSlots, "concurrent control-plane RPCs admitted")
	fs.IntVar(&c.Admission.BulkSlots, "admit-bulk", admission.DefaultBulkSlots, "concurrent bulk data operations admitted")
	fs.IntVar(&c.Admission.BackgroundSlots, "admit-background", admission.DefaultBackgroundSlots, "concurrent background RPCs admitted")
	fs.Float64Var(&c.Admission.BrownoutEnter, "brownout-enter", admission.DefaultBrownoutEnter, "load signal that enters brownout, 0..1 (it lifts at a third of this)")
	fs.IntVar(&c.MaxQueuedPulls, "max-queued-pulls", 0, "pull queue depth cap with priority-aware rejection (0 = unbounded)")
}

func main() {
	var s settings
	registerFlags(flag.CommandLine, &s)
	flag.Parse()
	if err := run(s); err != nil {
		fmt.Fprintln(os.Stderr, "gdmpd:", err)
		os.Exit(1)
	}
}

// Bounds on what a metrics client may hold: a connection that has not sent
// its request headers within metricsHeaderTimeout, or sits idle between
// requests past metricsIdleTimeout, is closed.
const (
	metricsHeaderTimeout = 5 * time.Second
	metricsIdleTimeout   = time.Minute
)

// serveMetrics exposes a registry at /metrics on addr, Prometheus-style.
// It returns the bound listener so the caller can close it on shutdown.
func serveMetrics(addr string, reg *obs.Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: metricsHeaderTimeout, IdleTimeout: metricsIdleTimeout}
	go srv.Serve(ln)
	return ln, nil
}

func run(s settings) error {
	cfg := s.site
	if cfg.Name == "" || cfg.DataDir == "" || cfg.ReplicaCatalog == "" || s.credPath == "" || s.caPath == "" {
		return fmt.Errorf("-name, -data, -rc, -cred and -ca are required")
	}
	cred, err := gsi.LoadCredential(s.credPath)
	if err != nil {
		return err
	}
	anchor, err := gsi.LoadCertificate(s.caPath)
	if err != nil {
		return err
	}
	acl := gsi.NewACL()
	core.AllowSiteUseAll(acl)
	objrep.AllowServiceUseAll(acl)
	if s.gridmap != "" {
		if acl, err = gsi.LoadGridmapFile(s.gridmap); err != nil {
			return err
		}
	}
	cfg.Cred, cfg.TrustRoots, cfg.ACL = cred, []*gsi.Certificate{anchor}, acl
	cfg.Logger = log.Default()

	if s.tape.TapeDir != "" {
		s.tape.PoolDir = cfg.DataDir
		if cfg.MSS, err = mss.New(s.tape); err != nil {
			return err
		}
	}
	if s.federation {
		cfg.Federation = objectstore.NewFederation()
	}

	site, err := core.NewSite(cfg)
	if err != nil {
		return err
	}
	if s.federation {
		if err := objrep.EnableService(site); err != nil {
			return err
		}
	}
	if s.metricsAddr != "" {
		mln, err := serveMetrics(s.metricsAddr, site.Metrics())
		if err != nil {
			site.Close()
			return err
		}
		defer mln.Close()
		log.Printf("metrics at http://%s/metrics", mln.Addr())
	}
	if rs := site.Recovery(); rs != (core.RecoveryStats{}) {
		log.Printf("recovery: %d files restored, %d notices requeued, %d pulls requeued, %d parts resumable, %d quarantined",
			rs.FilesRestored, rs.NoticesRequeued, rs.PullsRequeued, rs.PartsResumed, rs.Quarantined)
	}
	log.Printf("GDMP site %s up: control %s, data %s, catalog %s",
		site.Name(), site.Addr(), site.DataAddr(), cfg.ReplicaCatalog)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	sg := <-sig
	if sg == syscall.SIGTERM && s.drainTimeout > 0 {
		// Graceful drain: stop admissions, give in-flight transfers until
		// the deadline, journal the rest as pending for the next start.
		log.Printf("received %v, draining (up to %v)", sg, s.drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
		abandoned, derr := site.Drain(ctx)
		cancel()
		if derr != nil {
			log.Printf("drain: %d transfers abandoned (journaled as pending): %v", len(abandoned), derr)
		}
		return nil
	}
	log.Printf("received %v, shutting down", sg)
	return site.Close()
}
