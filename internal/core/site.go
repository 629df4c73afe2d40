package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/durable"
	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/health"
	"gdmp/internal/mss"
	"gdmp/internal/objectstore"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
	"gdmp/internal/rpc"
	"gdmp/internal/scrub"
	"gdmp/internal/xfer"
)

// Attribute names GDMP stores per logical file, beyond the generic ones in
// package replica.
const (
	// attrPath is the site-relative path of the file (shared by every
	// replica, so a destination recreates the same layout).
	attrPath = "path"

	// attrSite is the producing site's name.
	attrSite = "site"

	// AttrDBID is the object-database id of an "objectivity" file,
	// recorded at publish time (see ObjectivityType.PublishAttrs).
	AttrDBID = "dbid"

	// AttrAssocDBs is the comma-separated list of foreign database ids an
	// "objectivity" file's objects reference: the Section 2.1 associated
	// files that must travel together to preserve navigation.
	AttrAssocDBs = "assocdbs"

	// attrObjects is the object count of an "objectivity" file.
	attrObjects = "objects"
)

// GDMP RPC methods (doubling as ACL operations).
const (
	MethodPing        = "gdmp.ping"
	MethodSubscribe   = "gdmp.subscribe"
	MethodUnsubscribe = "gdmp.unsubscribe"
	MethodNotify      = "gdmp.notify"
	MethodCatalog     = "gdmp.catalog"
	MethodStage       = "gdmp.stage"
)

// Methods lists the GDMP server's RPC surface.
var Methods = []string{
	MethodPing, MethodSubscribe, MethodUnsubscribe,
	MethodNotify, MethodCatalog, MethodStage,
	MethodMetrics, MethodDigest, MethodFsck, MethodLRCQuery,
}

// AllowSiteUseAll grants every authenticated identity the full GDMP and
// GridFTP surface on an ACL (collaboration-internal default).
func AllowSiteUseAll(acl *gsi.ACL) {
	for _, m := range Methods {
		acl.AllowAll(gsi.Operation(m))
	}
	acl.AllowAll(gridftp.OpRead, gridftp.OpWrite)
}

// classifyMethod maps each RPC method onto an admission class: staging
// moves bytes (bulk), integrity and digest work can always wait
// (background), and everything else is cheap control-plane traffic.
func classifyMethod(method string) admission.Class {
	switch method {
	case MethodStage:
		return admission.Bulk
	case MethodFsck, MethodDigest:
		return admission.Background
	default:
		return admission.Control
	}
}

// Defaults NewSite applies to zero Config fields.
const (
	DefaultParallelism            = 2
	DefaultTransferAttempts       = 3
	DefaultNotifyFailureThreshold = 3
	DefaultHedgeDeadline          = 10 * time.Second
	DefaultDigestFPRate           = 0.01
)

// Config assembles one GDMP site.
type Config struct {
	// Name identifies the site (e.g. "cern.ch").
	Name string

	// DataDir is the disk pool served by the site's GridFTP server. When
	// MSS is set this should be the MSS pool directory.
	DataDir string

	// StateDir, when set, makes the site crash-safe: every mutation of the
	// local catalog, the subscriber registry with its undelivered
	// notification queues, and the pending-pull set is journaled (fsync'd
	// write-ahead log + compacting snapshots) under this directory before
	// it is acknowledged, and a restart replays the journal, reconciles
	// the data directory, and requeues unfinished work. Suspect files are
	// moved to <StateDir>/quarantine. Empty disables persistence.
	StateDir string

	// Cred is the site service credential; TrustRoots anchor peer chains.
	Cred       *gsi.Credential
	TrustRoots []*gsi.Certificate

	// ACL authorizes GDMP and GridFTP operations. Required.
	ACL *gsi.ACL

	// ReplicaCatalog is the address of the central replica catalog server.
	ReplicaCatalog string

	// MSS optionally provides tape staging behind the disk pool.
	MSS *mss.MSS

	// PrefetchThreshold makes the disk-pool prefetcher bring in the rest
	// of a collection (directory prefix) once that many cache misses have
	// hit it; 0 disables prefetching. Only meaningful with an MSS.
	PrefetchThreshold int

	// Federation optionally provides the local object database catalog,
	// required to replicate "objectivity" files.
	Federation *objectstore.Federation

	// AutoReplicate pulls files automatically upon notification (the
	// consumer side of the producer-consumer model).
	AutoReplicate bool

	// Parallelism and BufferBytes tune the data mover's GridFTP sessions.
	Parallelism int
	BufferBytes int

	// PullWorkers bounds how many pull replications run concurrently
	// (default 4). A burst of publication notices queues behind the pool
	// instead of opening one GridFTP session per file.
	PullWorkers int

	// PerSourceLimit caps concurrent transfers fetching from any single
	// source site, so one consumer cannot saturate a producer's GridFTP
	// server (0 = no per-source cap).
	PerSourceLimit int

	// AutoTuneBuffers, when set and BufferBytes is zero, makes the data
	// mover negotiate socket buffers per source using the paper's
	// ping+bandwidth-probe+formula method (Section 6, [Tier00]); the
	// learned value is cached per source endpoint.
	AutoTuneBuffers bool

	// TransferAttempts bounds restart attempts per file (default 3).
	TransferAttempts int

	// Retry is the base backoff policy for the site's network paths
	// (Request Manager dials, replica pulls, notification redelivery).
	// Zero fields take the retry package defaults; the policy is labeled
	// per operation before use.
	Retry retry.Policy

	// NotifyFailureThreshold is how many consecutive redelivery failures
	// mark a subscriber suspect (default 3). A suspect subscriber's queue
	// is dropped — it reconciles through Recover — and its health resets
	// when it re-subscribes.
	NotifyFailureThreshold int

	// ScrubInterval paces the background local scrubber: every interval,
	// the site re-reads its cataloged replicas and verifies their CRCs,
	// quarantining corrupt bytes and queueing repairs. Zero disables the
	// loop (on-demand Fsck still works).
	ScrubInterval time.Duration

	// ScrubRateBytes caps the scrubber's disk-read rate in bytes/second,
	// so integrity scans never starve live transfers (0 = unlimited).
	ScrubRateBytes int64

	// AntiEntropyInterval paces the digest exchange with producers and
	// subscribers that catches missed notifications and dangling catalog
	// locations. Zero disables the loop.
	AntiEntropyInterval time.Duration

	// DigestInterval paces the RLS digest pusher: every interval the site
	// condenses its Local Replica Catalog into a bloom filter and pushes
	// it to the Replica Location Index co-hosted with the replica catalog
	// server, keeping itself routable for peers' lookups. Zero disables
	// the loop (the site still answers LRC point queries).
	DigestInterval time.Duration

	// DigestTTL is the soft-state lifetime requested for pushed digests
	// (default 3x DigestInterval, so one missed push never ages the site
	// out of the index). The RLI caps it at its own TTL.
	DigestTTL time.Duration

	// DigestFPRate is the bloom digest's target false-positive rate
	// (default 0.01). False positives cost peers one extra LRC point
	// query; they never produce a wrong answer.
	DigestFPRate float64

	// QuarantineMaxAge and QuarantineMaxCount bound the growth of
	// <StateDir>/quarantine: entries older than MaxAge are swept, and the
	// oldest are removed beyond MaxCount. Zero means unlimited.
	QuarantineMaxAge   time.Duration
	QuarantineMaxCount int

	// ParityK and ParityM enable erasure-coded local repair: every
	// published or pool-landed file gets a Reed-Solomon parity sidecar of
	// ParityM parity blocks over ParityK data blocks, written next to the
	// file and journaled. The scrubber then rebuilds up to ParityM damaged
	// blocks locally instead of re-pulling the whole file over the WAN.
	// Both zero (the default) disables parity; parity.DefaultK/DefaultM
	// give the stock 8+2 geometry.
	ParityK int
	ParityM int

	// Health tunes the per-peer health scoreboard and circuit breakers
	// that gate every pull source (zero fields take the health package
	// defaults). The Registry field is managed by the site; set Seed for
	// replayable reopen jitter in tests.
	Health health.Config

	// HedgeDeadline is the stall deadline for pulls from sources the
	// scoreboard has no history for: a transfer moving no bytes for this
	// long starts (or fails over to) a second replica, resuming the
	// verified .part prefix cross-source. Once a source has history its
	// p99-derived deadline wins. Zero takes the default (10s); negative
	// disables stall detection and hedging.
	HedgeDeadline time.Duration

	// Select names the replica a pull should prefer among equally healthy
	// sources (nil = catalog order). The health ranking still applies on
	// top: a preferred source behind an open breaker is shed like any other.
	Select ReplicaSelector

	// DialFunc substitutes the transport dialer (WAN emulation).
	DialFunc func(network, addr string) (net.Conn, error)

	// GDMPListen and FTPListen optionally pin the two servers to fixed
	// "host:port" addresses (daemons); empty binds that server to
	// 127.0.0.1:0 (tests and in-process grids).
	GDMPListen string
	FTPListen  string

	// Logger receives diagnostics; nil discards.
	Logger *log.Logger

	// Metrics is the registry the site (and its GridFTP and Request
	// Manager servers) records instrumentation into; nil makes a private one.
	Metrics *obs.Registry

	// Admission tunes the site's overload-protection controller: per-class
	// concurrency limits with bounded deadline-aware wait queues for the
	// RPC and GridFTP servers, plus the brownout load signal that defers
	// background work under pressure. Zero fields take the admission
	// package defaults; the Registry field is managed by the site.
	Admission admission.Config

	// RPCMaxConns caps how many GDMP server connections may be open at
	// once; excess connections are closed at accept (0 = unlimited).
	RPCMaxConns int

	// MaxQueuedPulls caps the pull scheduler's queue depth. At the cap a
	// new submission displaces the lowest-priority queued pull only when
	// it strictly outranks it; otherwise the newcomer is rejected with
	// xfer.ErrQueueFull. Zero leaves the queue unbounded.
	MaxQueuedPulls int

	// StageWriter, when non-nil, wraps the staging-file writer of every
	// replica pull (fault-injection harnesses emulate disk-full with it).
	StageWriter func(io.WriterAt) io.WriterAt
}

// Site is a running GDMP node: GDMP server, GridFTP server, local catalog,
// data mover, and storage manager, per Figure 4.
type Site struct {
	cfg    Config
	logger *log.Logger

	gdmpSrv *rpc.Server
	ftpSrv  *gridftp.Server

	gdmpLn net.Listener
	ftpLn  net.Listener

	rc rcService

	// persist holds the site's durable tables (local file catalog,
	// subscribers and their notice queues, unfinished pulls, producers,
	// scrub cursor, parity sidecars) and the journal behind them; local is
	// its file table, persist.st.files, under the name its readers use.
	persist *sitePersistence
	local   *localCatalog

	federation *objectstore.Federation
	storage    *mss.MSS

	types *typeRegistry

	notifyWG sync.WaitGroup

	// ctx is canceled by Close; it gates retry backoffs and redelivery
	// drains so shutdown does not wait out a backoff schedule.
	ctx    context.Context
	cancel context.CancelFunc

	// sched owns the pull pipeline: bounded workers, FIFO+priority
	// admission, in-flight LFN dedup, and per-source caps.
	sched     *xfer.Scheduler
	closeOnce sync.Once

	xferLog *transferLog

	recovery RecoveryStats

	metrics *obs.Registry
	met     *siteMetrics

	// Self-healing runtime (internal/scrub): metrics, the scan rate
	// limiter, and the outstanding repairs by LFN, each channel closed
	// when its pull ends. scrubMu serializes passes.
	scrubMet *scrub.Metrics
	scrubLim *scrub.Limiter
	repairMu sync.Mutex
	repairs  map[string]chan struct{}
	scrubMu  sync.Mutex

	// loops joins the periodic passes (startLoops).
	loops sync.WaitGroup

	// RLS runtime (rls.go): the digest pusher's generation counter and
	// change-detection hash.
	rlsMet         *rlsSiteMetrics
	digestGen      atomic.Uint64
	digestMu       sync.Mutex
	lastDigestHash uint64

	// health is the per-peer scoreboard and circuit-breaker bank gating
	// the pull path; hedgeMet counts hedged-pull outcomes (hedge.go).
	health   *health.Board
	hedgeMet *hedgeMetrics

	// admit is the overload-protection controller shared by the GDMP RPC
	// server (per-method classes), the GridFTP server (bulk class), and
	// the background loops (brownout gating).
	admit *admission.Controller

	tuneMu   sync.Mutex
	tunedBuf map[string]int // source data addr -> negotiated buffer

	// Disk-pool cache runtime: the gdmp_pool_* family and the
	// per-collection demand counters behind the prefetcher (see pool.go).
	poolMet    *obs.PoolMetrics
	prefMu     sync.Mutex
	poolDemand map[string]int
}

// NewSite builds and starts a site: both servers listen on ephemeral ports.
func NewSite(cfg Config) (*Site, error) {
	if cfg.Name == "" {
		return nil, errors.New("core: site Name must be set")
	}
	if cfg.DataDir == "" {
		return nil, errors.New("core: site DataDir must be set")
	}
	if cfg.Cred == nil {
		return nil, errors.New("core: site Cred must be set")
	}
	if cfg.ACL == nil {
		return nil, errors.New("core: site ACL must be set")
	}
	if cfg.ReplicaCatalog == "" {
		return nil, errors.New("core: site ReplicaCatalog address must be set")
	}
	if err := durable.MkdirAll(cfg.DataDir); err != nil {
		return nil, err
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = DefaultParallelism
	}
	if cfg.TransferAttempts <= 0 {
		cfg.TransferAttempts = DefaultTransferAttempts
	}
	if cfg.NotifyFailureThreshold <= 0 {
		cfg.NotifyFailureThreshold = DefaultNotifyFailureThreshold
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.HedgeDeadline == 0 {
		cfg.HedgeDeadline = DefaultHedgeDeadline
	}
	if err := (parity.Params{K: cfg.ParityK, M: cfg.ParityM}).Validate(); err != nil {
		return nil, err
	}

	s := &Site{
		cfg:        cfg,
		logger:     cfg.Logger,
		federation: cfg.Federation,
		storage:    cfg.MSS,
		types:      newTypeRegistry(),
		xferLog:    newTransferLog(0),
		metrics:    cfg.Metrics,
		met:        newSiteMetrics(cfg.Metrics),
		tunedBuf:   make(map[string]int),
	}
	rcClient, err := replica.Dial(cfg.ReplicaCatalog, cfg.Cred, cfg.TrustRoots, s.rpcDialOpts()...)
	if err != nil {
		return nil, fmt.Errorf("core: connect replica catalog: %w", err)
	}
	s.rc = rcService{rcClient}
	hcfg := cfg.Health
	hcfg.Registry = cfg.Metrics
	s.health = health.New(hcfg)
	s.hedgeMet = newHedgeMetrics(cfg.Metrics)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	acfg := cfg.Admission
	acfg.Registry = cfg.Metrics
	s.admit = admission.New(acfg)
	s.sched = xfer.New(xfer.Config{
		Workers:   cfg.PullWorkers,
		PerSource: cfg.PerSourceLimit,
		MaxQueue:  cfg.MaxQueuedPulls,
		Registry:  cfg.Metrics,
	})
	// From here on a failed start releases what the half-built site holds
	// through the same teardown Close uses, minus the final compaction.
	fail := func(err error) (*Site, error) {
		s.teardown(false)
		return nil, err
	}
	if s.federation != nil {
		if err := s.types.register(ObjectivityType{}); err != nil {
			return fail(err)
		}
	}

	persist, torn, err := openPersistence(cfg.StateDir, cfg.Metrics, cfg.Logger)
	if err != nil {
		return fail(err)
	}
	s.persist, s.local = persist, persist.st.files
	if cfg.StateDir != "" {
		if err := s.restoreFromJournal(torn); err != nil {
			return fail(fmt.Errorf("core: restart recovery: %w", err))
		}
	}

	// The self-healing runtime comes up before the servers: the digest
	// and fsck handlers use it, and producer tracking restores from the
	// journal replay above.
	s.initScrub()
	s.initRLS()

	ftpSrv, err := gridftp.NewServer(gridftp.ServerConfig{
		Root:       cfg.DataDir,
		Cred:       cfg.Cred,
		TrustRoots: cfg.TrustRoots,
		ACL:        cfg.ACL,
		Logger:     cfg.Logger,
		Metrics:    cfg.Metrics,
		Admit: func(string) (func(), error) {
			// Data-moving verbs share the bulk class with tape stages, so
			// one admission budget bounds all disk-to-disk movement.
			return s.admit.Admit(s.ctx, admission.Bulk, admission.Request{})
		},
		Stage: s.stageServed,
	})
	if err != nil {
		return fail(err)
	}
	ftpListen := cfg.FTPListen
	if ftpListen == "" {
		ftpListen = "127.0.0.1:0"
	}
	s.ftpSrv = ftpSrv
	s.ftpLn, err = net.Listen("tcp", ftpListen)
	if err != nil {
		return fail(err)
	}
	go ftpSrv.Serve(s.ftpLn)

	gdmpListen := cfg.GDMPListen
	if gdmpListen == "" {
		gdmpListen = "127.0.0.1:0"
	}
	s.gdmpSrv = rpc.NewServer(cfg.Cred, cfg.TrustRoots, cfg.ACL, cfg.Metrics)
	s.gdmpSrv.SetLogger(s.logger)
	s.gdmpSrv.SetAdmission(s.admit, classifyMethod)
	s.gdmpSrv.MaxConns = cfg.RPCMaxConns
	s.registerHandlers()
	s.gdmpLn, err = net.Listen("tcp", gdmpListen)
	if err != nil {
		return fail(err)
	}
	go s.gdmpSrv.Serve(s.gdmpLn)

	// The pool cache hooks in once both servers are up (evictions build
	// PFNs from the data address) and before recovered pulls resume, so
	// every eviction they trigger is already catalog-consistent.
	s.initPool()

	if cfg.StateDir != "" {
		// Only now can recovered work run: delivery drains need the site
		// context, requeued pulls need the servers' addresses.
		s.resumeRecovered()
	}
	// Startup retention sweep, then the periodic passes — after recovery,
	// so the first pass sees a settled catalog.
	s.sweepQuarantine()
	s.startLoops()
	return s, nil
}

// Name returns the site name.
func (s *Site) Name() string { return s.cfg.Name }

// Addr returns the GDMP control endpoint.
func (s *Site) Addr() string { return s.gdmpLn.Addr().String() }

// DataAddr returns the GridFTP endpoint.
func (s *Site) DataAddr() string { return s.ftpLn.Addr().String() }

// DataDir returns the disk-pool directory.
func (s *Site) DataDir() string { return s.cfg.DataDir }

// Federation returns the site's object federation (may be nil).
func (s *Site) Federation() *objectstore.Federation { return s.federation }

// RegisterFileType adds a custom replication plug-in.
func (s *Site) RegisterFileType(ft FileType) error { return s.types.register(ft) }

// LocalFiles lists the site's local file catalog.
func (s *Site) LocalFiles() []FileInfo { return s.local.list() }

// HasFile reports whether the LFN is replicated locally.
func (s *Site) HasFile(lfn string) bool { return s.local.has(lfn) }

// Query searches the central replica catalog with an LDAP-style filter.
func (s *Site) Query(filter string) ([]*replica.LogicalFile, error) {
	return s.rc.Query(s.ctx, filter)
}

// Close shuts the site down. With a StateDir, the final state is folded
// into a journal snapshot so the next start replays nothing.
func (s *Site) Close() error {
	var err error
	s.closeOnce.Do(func() { err = s.teardown(true) })
	return err
}

// teardown stops and joins everything the site started, in dependency
// order. It tolerates a half-built site (NewSite's error returns call it
// with graceful false), so parts not yet created are skipped.
func (s *Site) teardown(graceful bool) error {
	s.cancel()
	// The periodic passes first: a pass in flight unblocks on the canceled
	// site context, and none may queue new work into a closing scheduler.
	s.loops.Wait()
	// Stop the pull pipeline: running transfers are canceled, queued
	// jobs fail with context.Canceled, and the workers drain.
	s.sched.Close()
	// Both servers next: the control server's stage and fsck handlers and
	// the GridFTP server's stage hook start notifyWG goroutines (a
	// prefetch, a repair's waiter), so every handler must have returned
	// before that group is waited on (an Add racing the Wait is WaitGroup
	// misuse).
	var errs []error
	if s.gdmpSrv != nil {
		errs = append(errs, s.gdmpSrv.Close())
	}
	if s.ftpSrv != nil {
		errs = append(errs, s.ftpSrv.Close())
	}
	s.notifyWG.Wait()
	errs = append(errs, s.rc.Close())
	if s.federation != nil {
		s.federation.Close()
	}
	if s.persist != nil {
		s.persist.close(graceful)
	}
	return errors.Join(errs...)
}

// Kill tears the site down abruptly, skipping every graceful step: the
// journal is severed first — no final compaction, no further appends. It
// models a process kill (SIGKILL): what was written stays in the page
// cache and reaches the disk, fsync'd or not. A power cut, which keeps only
// what was fsync'd, is the test grid's PowerCut. Crash tests restart a
// site on the same StateDir/DataDir afterwards.
func (s *Site) Kill() {
	s.persist.close(false)
	s.Close()
}

// Drain shuts the site down gracefully: new pull admissions fail with
// xfer.ErrDraining while queued and running transfers get until ctx
// expires to finish; whatever does not make it stays journaled as
// unfinished work and is requeued on the next start. It returns the
// dedup keys (LFNs) of the pulls it had to abandon.
func (s *Site) Drain(ctx context.Context) (abandoned []string, err error) {
	// Admission first: every queued request is rejected with ErrDraining
	// and no new work is admitted, so the scheduler drain below only has
	// to wait out transfers that were already running.
	s.admit.Drain()
	abandoned, derr := s.sched.Drain(ctx)
	if derr != nil {
		s.logger.Printf("gdmp[%s]: drain abandoned %d pulls: %v", s.cfg.Name, len(abandoned), derr)
	}
	cerr := s.Close()
	if derr != nil {
		return abandoned, derr
	}
	return nil, cerr
}

// Recovery reports what the last restart reconstructed (zero value when
// the site has no StateDir or started fresh).
func (s *Site) Recovery() RecoveryStats { return s.recovery }

// resolveLocal maps a site-relative path into the data directory.
func (s *Site) resolveLocal(rel string) (string, error) {
	clean := path.Clean("/" + strings.ReplaceAll(rel, "\\", "/"))
	if clean == "/" {
		return "", errors.New("core: empty path")
	}
	return filepath.Join(s.cfg.DataDir, filepath.FromSlash(clean)), nil
}

// pfnFor builds this site's PFN for a site-relative path.
func (s *Site) pfnFor(rel string) PFN {
	return PFN{Addr: s.DataAddr(), Path: strings.TrimPrefix(path.Clean("/"+rel), "/")}
}

// retryPolicy labels the site's base policy for one operation and points
// its instrumentation at the site registry.
func (s *Site) retryPolicy(op string) retry.Policy {
	p := s.cfg.Retry
	p.Op = op
	p.Registry = s.metrics
	if p.Retryable == nil {
		p.Retryable = transientRPC
	}
	return p
}

// transientRPC retries transport failures but not application-level
// errors: a *rpc.RemoteError means the exchange worked and the remote
// handler rejected the request, which a redial will not change. A typed
// overload rejection IS retryable — the server is explicitly asking the
// caller to come back later, and retry.Do floors its backoff at the
// server-suggested retry-after.
func transientRPC(err error) bool {
	if errors.Is(err, admission.ErrOverloaded) {
		return true
	}
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		return false
	}
	return retry.DefaultRetryable(err)
}

// Ping checks liveness and returns the remote site's name.
func (s *Site) Ping(remoteAddr string) (string, error) {
	d, err := s.call(s.ctx, remoteAddr, MethodPing, nil)
	if err != nil {
		return "", err
	}
	name := d.String()
	return name, d.Finish()
}

// call is the site's one control-plane exchange with another site's
// Request Manager: a session dialed with this site's credential and
// transport settings (dialGDMP: retried, scored on the health board), one
// request, the session closed. The reply is the caller's to decode and
// Finish.
func (s *Site) call(ctx context.Context, addr, method string, args *rpc.Encoder) (*rpc.Decoder, error) {
	cl, err := s.dialGDMP(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.CallContext(ctx, method, args)
}

// dialGDMP opens a Request Manager session, retrying transient dial
// failures under the site policy.
func (s *Site) dialGDMP(ctx context.Context, addr string) (*rpc.Client, error) {
	var cl *rpc.Client
	pol := s.retryPolicy("core.dial")
	err := pol.Do(ctx, func(int) error {
		var derr error
		start := time.Now()
		cl, derr = rpc.DialContext(ctx, addr, s.cfg.Cred, s.cfg.TrustRoots, s.rpcDialOpts()...)
		// Every control-plane dial feeds the scoreboard: latency on
		// success, a breaker strike on failure. Control endpoints are
		// their own peer keys, separate from data endpoints.
		s.health.Observe(addr, time.Since(start), derr)
		return derr
	})
	return cl, err
}

func (s *Site) rpcDialOpts() []rpc.DialOption {
	opts := []rpc.DialOption{rpc.WithTimeout(30 * time.Second)}
	if s.cfg.DialFunc != nil {
		opts = append(opts, rpc.WithDialer(s.cfg.DialFunc))
	}
	return opts
}

// --- server handlers -------------------------------------------------------------

func (s *Site) registerHandlers() {
	s.gdmpSrv.Handle(MethodPing, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		resp.String(s.cfg.Name)
		return nil
	})
	s.registerPublishHandlers()
	s.gdmpSrv.Handle(MethodStage, func(ctx context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		lfn := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		err := s.stageLocal(ctx, lfn)
		s.met.stageRequests.WithLabelValues(outcomeOf(err)).Inc()
		return err
	})
	s.registerScrubHandlers()
	s.registerRLSHandlers()
	s.registerMetricsHandler()
}
