// Package testbed assembles complete in-process Data Grids: a certificate
// authority, a central replica catalog server, and any number of GDMP sites
// with their GridFTP servers, optional Mass Storage Systems, and optional
// object federations. Integration tests, examples, and the benchmark
// harness all build their multi-site topologies (Figure 3 of the paper)
// through this package.
package testbed

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/core"
	"gdmp/internal/durable"
	"gdmp/internal/faults"
	"gdmp/internal/gsi"
	"gdmp/internal/health"
	"gdmp/internal/mss"
	"gdmp/internal/objectstore"
	"gdmp/internal/obs"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
)

// Grid is a running in-process Data Grid.
type Grid struct {
	CA    *gsi.CA
	Roots []*gsi.Certificate
	ACL   *gsi.ACL

	Catalog     *replica.Catalog
	CatalogSrv  *replica.Server
	CatalogAddr string

	Sites map[string]*core.Site

	baseDir   string
	siteOpts  map[string]SiteOptions
	recorders map[string]*Recorder
}

// SiteOptions configures one site added to the grid.
type SiteOptions struct {
	// AutoReplicate pulls notified files automatically.
	AutoReplicate bool

	// Parallelism and BufferBytes tune the site's data mover.
	Parallelism int
	BufferBytes int

	// AutoTuneBuffers negotiates socket buffers per source (Section 6).
	AutoTuneBuffers bool

	// WithMSS gives the site a simulated tape library behind its pool.
	WithMSS bool

	// MSSCapacity is the disk-pool size when WithMSS is set (default 1 GiB).
	MSSCapacity int64

	// MountLatency and TapeRateMBps configure the tape model.
	MountLatency time.Duration
	TapeRateMBps float64

	// MSSPolicy selects the disk-pool eviction policy when WithMSS is set
	// (default LRU).
	MSSPolicy mss.EvictionPolicy

	// Prefetch enables the site's collection prefetcher: after this many
	// pool misses in one collection the rest is brought in ahead of
	// demand (0 disables). Only meaningful with WithMSS.
	Prefetch int

	// WithFederation gives the site an object database federation, making
	// it able to replicate "objectivity" files.
	WithFederation bool

	// DialFunc substitutes the transport dialer (WAN emulation).
	DialFunc func(network, addr string) (net.Conn, error)

	// Faults routes every outbound connection of the site (RPC and
	// GridFTP alike) through a fault injector; composes with DialFunc
	// (the injector wraps it).
	Faults *faults.Injector

	// Retry overrides the site's base backoff policy; zero fields take
	// the retry package defaults.
	Retry retry.Policy

	// NotifyFailureThreshold sets how many consecutive notification
	// failures mark a subscriber suspect (default 3).
	NotifyFailureThreshold int

	// TransferAttempts bounds restart attempts per file transfer.
	TransferAttempts int

	// PullWorkers bounds the site's concurrent pull replications
	// (default 4).
	PullWorkers int

	// PerSourceLimit caps concurrent transfers per source site (0 = no
	// per-source cap).
	PerSourceLimit int

	// Select overrides the replica selection policy.
	Select core.ReplicaSelector

	// Metrics is the registry the site records into; nil lets the site
	// make its own, which Site.Metrics returns.
	Metrics *obs.Registry

	// Durable gives the site a state directory (under the grid's base
	// dir), enabling the crash-safe journal. Combined with Kill and
	// RestartSite this is the crash/restart test surface.
	Durable bool

	// RecordSyncs records every fsync, rename and directory fsync under
	// the site's directories from its first start on (Grid.Recorder), so
	// PowerCut can roll the site back to what they made durable.
	RecordSyncs bool

	// ScrubInterval and AntiEntropyInterval enable the site's background
	// self-healing loops (zero disables each); ScrubRateBytes paces the
	// scrubber's disk reads.
	ScrubInterval       time.Duration
	AntiEntropyInterval time.Duration
	ScrubRateBytes      int64

	// QuarantineMaxAge and QuarantineMaxCount bound the quarantine
	// directory's retention (zero = unlimited).
	QuarantineMaxAge   time.Duration
	QuarantineMaxCount int

	// ParityK and ParityM enable erasure-coded local repair (zero
	// disables): every published or landed replica gets a K+M parity
	// sidecar, and scrub rebuilds ≤M damaged blocks locally instead of
	// re-pulling over the WAN.
	ParityK int
	ParityM int

	// GDMPListen and FTPListen pin the site's two servers to fixed
	// addresses; empty picks ephemeral ports. RestartSite pins them
	// automatically so a reborn site keeps its identity (PFNs in the
	// replica catalog and subscriber registrations embed the addresses).
	GDMPListen string
	FTPListen  string

	// Health tunes the site's per-peer scoreboard and circuit breakers;
	// zero fields take the health package defaults. Set Seed for
	// replayable reopen jitter.
	Health health.Config

	// HedgeDeadline sets the cold-start stall deadline for hedged pulls
	// (0 = the core default, negative disables hedging).
	HedgeDeadline time.Duration

	// Admission tunes the site's overload-protection controller; zero
	// fields take the admission package defaults.
	Admission admission.Config

	// RPCMaxConns caps concurrent GDMP server connections (0 = unlimited).
	RPCMaxConns int

	// MaxQueuedPulls caps the pull scheduler's queue depth with
	// priority-aware rejection at the cap (0 = unbounded).
	MaxQueuedPulls int

	// StageWriter wraps the staging-file writer of every replica pull
	// (fault injection: disk-full emulation).
	StageWriter func(io.WriterAt) io.WriterAt
}

// NewGrid creates the trust domain and the central replica catalog.
// baseDir hosts all site data directories (use a temp dir).
func NewGrid(baseDir string) (*Grid, error) {
	ca, err := gsi.NewCA("DataGrid", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	roots := []*gsi.Certificate{ca.Certificate()}
	acl := gsi.NewACL()
	replica.AllowCatalogUseAll(acl)
	core.AllowSiteUseAll(acl)

	catalogCred, err := ca.Issue("replicad/central", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	// bench/run.go reads this catalog server's request count in obs.Default.
	catalog := replica.New(replica.Options{Registry: obs.Default})
	catalogSrv := replica.NewServer(catalog, catalogCred, roots, acl)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go catalogSrv.Serve(ln)

	return &Grid{
		CA:          ca,
		Roots:       roots,
		ACL:         acl,
		Catalog:     catalog,
		CatalogSrv:  catalogSrv,
		CatalogAddr: ln.Addr().String(),
		Sites:       make(map[string]*core.Site),
		baseDir:     baseDir,
		siteOpts:    make(map[string]SiteOptions),
		recorders:   make(map[string]*Recorder),
	}, nil
}

// AddSite creates, starts, and registers a GDMP site.
func (g *Grid) AddSite(name string, opts SiteOptions) (*core.Site, error) {
	if _, dup := g.Sites[name]; dup {
		return nil, fmt.Errorf("testbed: site %q already exists", name)
	}
	cred, err := g.CA.Issue("gdmp/"+name, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	siteDir := filepath.Join(g.baseDir, name)
	dataDir := filepath.Join(siteDir, "pool")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	if opts.RecordSyncs && g.recorders[name] == nil {
		rec, err := Record(siteDir)
		if err != nil {
			return nil, err
		}
		g.recorders[name] = rec
	}

	dialFunc := opts.DialFunc
	if opts.Faults != nil {
		dialFunc = opts.Faults.Dialer(dialFunc)
	}
	cfg := core.Config{
		Name:                   name,
		DataDir:                dataDir,
		GDMPListen:             opts.GDMPListen,
		FTPListen:              opts.FTPListen,
		Cred:                   cred,
		TrustRoots:             g.Roots,
		ACL:                    g.ACL,
		ReplicaCatalog:         g.CatalogAddr,
		AutoReplicate:          opts.AutoReplicate,
		Parallelism:            opts.Parallelism,
		BufferBytes:            opts.BufferBytes,
		AutoTuneBuffers:        opts.AutoTuneBuffers,
		DialFunc:               dialFunc,
		Retry:                  opts.Retry,
		NotifyFailureThreshold: opts.NotifyFailureThreshold,
		TransferAttempts:       opts.TransferAttempts,
		PullWorkers:            opts.PullWorkers,
		PerSourceLimit:         opts.PerSourceLimit,
		Select:                 opts.Select,
		Metrics:                opts.Metrics,
		ScrubInterval:          opts.ScrubInterval,
		AntiEntropyInterval:    opts.AntiEntropyInterval,
		ScrubRateBytes:         opts.ScrubRateBytes,
		QuarantineMaxAge:       opts.QuarantineMaxAge,
		QuarantineMaxCount:     opts.QuarantineMaxCount,
		ParityK:                opts.ParityK,
		ParityM:                opts.ParityM,
		PrefetchThreshold:      opts.Prefetch,
		Health:                 opts.Health,
		HedgeDeadline:          opts.HedgeDeadline,
		Admission:              opts.Admission,
		RPCMaxConns:            opts.RPCMaxConns,
		MaxQueuedPulls:         opts.MaxQueuedPulls,
		StageWriter:            opts.StageWriter,
	}
	if opts.Durable {
		cfg.StateDir = filepath.Join(siteDir, "state")
	}
	if opts.WithMSS {
		capacity := opts.MSSCapacity
		if capacity <= 0 {
			capacity = 1 << 30
		}
		m, err := mss.New(mss.Config{
			TapeDir:      filepath.Join(siteDir, "tape"),
			PoolDir:      dataDir,
			PoolCapacity: capacity,
			MountLatency: opts.MountLatency,
			TapeRateMBps: opts.TapeRateMBps,
			Policy:       opts.MSSPolicy,
		})
		if err != nil {
			return nil, err
		}
		cfg.MSS = m
	}
	if opts.WithFederation {
		cfg.Federation = objectstore.NewFederation()
	}

	site, err := core.NewSite(cfg)
	if err != nil {
		return nil, err
	}
	g.Sites[name] = site
	g.siteOpts[name] = opts
	return site, nil
}

// Site returns a site by name.
func (g *Grid) Site(name string) *core.Site { return g.Sites[name] }

// RestartSite simulates a crash-and-reboot of a site: the running
// instance is killed abruptly (no graceful drain, no final journal
// snapshot), and a new instance starts over the same data and state
// directories, pinned to the same control and data addresses so its
// catalog PFNs and subscriber registrations stay valid. The caller may
// also have killed the site already; Kill is idempotent.
func (g *Grid) RestartSite(name string) (*core.Site, error) {
	old, ok := g.Sites[name]
	if !ok {
		return nil, fmt.Errorf("testbed: unknown site %q", name)
	}
	opts := g.siteOpts[name]
	opts.GDMPListen = old.Addr()
	opts.FTPListen = old.DataAddr()
	old.Kill()
	delete(g.Sites, name)
	return g.AddSite(name, opts)
}

// PowerCut kills a site the way a power cut does: Kill, then the site's
// directory is rolled back to what its recorded fsyncs made durable
// (Recorder.Cut). The site must have been added with RecordSyncs;
// RestartSite brings it back on the rolled-back image.
func (g *Grid) PowerCut(name string) error {
	site, rec := g.Sites[name], g.recorders[name]
	if site == nil || rec == nil {
		return fmt.Errorf("testbed: site %q is not recording its syncs", name)
	}
	site.Kill()
	return rec.Cut()
}

// Recorder returns the recorder of a site added with RecordSyncs.
func (g *Grid) Recorder(name string) *Recorder { return g.recorders[name] }

// Close shuts down every site and the catalog server.
func (g *Grid) Close() {
	for _, s := range g.Sites {
		s.Close()
	}
	for _, rec := range g.recorders {
		rec.Stop()
	}
	g.CatalogSrv.Close()
}

// WriteSiteFile drops bytes into a site's data directory so they can be
// published (simulating detector output landing at a production site).
// They are written durably: a harness's inputs survive a power cut, so
// only the program is under test.
func (g *Grid) WriteSiteFile(siteName, relPath string, data []byte) (string, error) {
	site, ok := g.Sites[siteName]
	if !ok {
		return "", fmt.Errorf("testbed: unknown site %q", siteName)
	}
	full := filepath.Join(site.DataDir(), filepath.FromSlash(relPath))
	dir := filepath.Dir(full)
	if err := durable.MkdirAll(dir); err != nil {
		return "", err
	}
	err := durable.WriteAtomic(full, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return "", err
	}
	return full, durable.SyncDir(dir)
}

// MakeData builds deterministic pseudo-random content.
func MakeData(size int, seed int64) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}
