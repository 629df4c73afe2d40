package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/durable"
	"gdmp/internal/gridftp"
	"gdmp/internal/health"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
	"gdmp/internal/rpc"
	"gdmp/internal/xfer"
)

// This file is the pull path — the Data Mover pipeline of Section 4.1 —
// as one list of stages over one per-pull struct:
//
//	locate → rank → reserve → fetch → verify → commit
//
// locate, reserve, fetch and commit run once per pull, in that order, from
// replicate. rank runs at the top of every fetch attempt (the scoreboard
// moves between attempts), and verify closes every transfer leg (a source
// whose bytes fail the catalog's CRC must fail over like a dead one).
// hedge.go is the fetch stage's stall watchdog.

// ReplicaSelector names the replica to prefer among equally healthy
// sources. The paper leaves "replica selection based on cost functions" as
// future work [VTF01]; here the cost function is the health scoreboard
// (rank), and this hook only breaks its ties.
type ReplicaSelector func(lfn string, candidates []PFN) PFN

// Get replicates a logical file to this site, running the full pipeline of
// Section 4.1: pre-processing, secure restartable transfer with CRC
// verification, post-processing, and insertion into the replica catalog.
// Concurrent Gets of the same LFN coalesce onto one scheduler job, and
// every waiter receives that job's real error.
func (s *Site) Get(lfn string) error {
	return s.GetCtx(s.ctx, lfn)
}

// GetCtx is Get bounded by a caller context. The pull itself runs as a
// scheduler job under the site's lifetime; ctx only bounds this caller's
// wait. When the last interested caller gives up, the job is canceled
// (dequeued if still pending, interrupted mid-transfer if running).
func (s *Site) GetCtx(ctx context.Context, lfn string) error {
	if s.HasFile(lfn) {
		if s.storage != nil {
			// A Get satisfied by a resident replica is a pool cache hit;
			// the matching miss is counted when a pull lands (commit).
			// The hit also refreshes the replica's recency, or LRU would
			// never see read traffic and degenerate to FIFO.
			if fi, ok := s.local.get(lfn); ok {
				s.storage.Touch(fi.Path)
			}
			s.storage.NoteAccess(true, 0)
		}
		return nil
	}
	err := s.submitGet(lfn, 0).Wait(ctx)
	s.pending("") // a pull abandoned while queued never ran its job
	return err
}

// submitGet admits one LFN pull to the scheduler; the LFN is the dedup
// key, so concurrent submissions share a single transfer.
func (s *Site) submitGet(lfn string, priority int) *xfer.Ticket {
	// Admission is durable: a crash between here and replication requeues
	// the pull at restart (no-op when the LFN is already journaled with
	// richer detail from its notification). A journal failure degrades the
	// pull to memory-only — the caller still holds the ticket and no ack
	// has gone to anyone yet, so losing it in a crash is safe.
	if err := s.persist.pullQueued(FileInfo{LFN: lfn}); err != nil {
		s.logger.Printf("gdmp[%s]: journal pull admission %s: %v", s.cfg.Name, lfn, err)
	}
	tk := s.sched.Submit(lfn, priority, func(jobCtx context.Context) error {
		if s.HasFile(lfn) {
			s.journalPullDone(lfn)
			return nil
		}
		err := s.replicate(jobCtx, lfn)
		s.met.replications.WithLabelValues(outcomeOf(err)).Inc()
		if err != nil {
			// The intent stays journaled: pending once this job ends.
			s.logger.Printf("gdmp[%s]: pull %s: %v", s.cfg.Name, lfn, err)
			s.pending(lfn)
			return err
		}
		s.journalPullDone(lfn)
		return nil
	})
	s.pending("")
	return tk
}

// journalPullDone retires a pull's journal record. Best-effort: a record
// that outlives its pull merely requeues at the next restart, where the
// already-present file retires it for good.
func (s *Site) journalPullDone(lfn string) {
	if err := s.persist.pullDone(lfn); err != nil {
		s.logger.Printf("gdmp[%s]: journal pull-done %s: %v", s.cfg.Name, lfn, err)
	}
}

// pull is one replication's working state, filled in stage by stage.
type pull struct {
	s   *Site
	lfn string

	// locate: the catalog entry (RLI-confirmed holders' control addresses
	// merged into its attrs), the replication plug-in it names, and every
	// remote replica, in catalog order.
	entry   *replica.LogicalFile
	ft      FileType
	sources []PFN

	// reserve: where the file lands, and the pool reservation covering it
	// until commit hands the bytes to the pool (a no-op without an MSS).
	rel       string
	localPath string
	release   func()

	// fetch: wall time across all attempts, the pool's miss latency.
	fetchElapsed time.Duration
}

// replicate runs the four-step pipeline of Section 4.1 — pre-processing,
// transfer, post-processing, catalog insertion — for one logical file.
func (s *Site) replicate(ctx context.Context, lfn string) error {
	p := &pull{s: s, lfn: lfn}
	if err := p.locate(ctx); err != nil {
		return err
	}
	if err := p.ft.PreProcess(s, lfn); err != nil {
		return fmt.Errorf("core: pre-process %s: %w", lfn, err)
	}
	if err := p.reserve(); err != nil {
		return err
	}
	defer p.release()
	if err := p.fetch(ctx); err != nil {
		return fmt.Errorf("core: transfer %s: %w", lfn, err)
	}
	if err := p.ft.PostProcess(s, lfn, p.localPath); err != nil {
		return fmt.Errorf("core: post-process %s: %w", lfn, err)
	}
	return p.commit(ctx)
}

// locate resolves the catalog entry, its plug-in and the replicas to pull from.
func (p *pull) locate(ctx context.Context) error {
	entry, err := p.s.rc.Lookup(ctx, p.lfn)
	if err != nil {
		return fmt.Errorf("core: lookup %s: %w", p.lfn, err)
	}
	p.entry = entry
	if p.ft, err = p.s.types.lookup(entry.Attrs[replica.AttrFileType]); err != nil {
		return err
	}
	p.sources, _, err = p.s.remoteSources(ctx, p.lfn, entry)
	if err != nil {
		return err
	}
	if len(p.sources) == 0 {
		return fmt.Errorf("core: no remote replica of %s", p.lfn)
	}
	return nil
}

// rank is the pull path's only ordering. The sources start in catalog
// order with Config.Select's pick, if any, moved to the front; a stable
// sort by scoreboard health (probe-due peers first, so live traffic
// carries reopen probes; then closed breakers by descending EWMA
// bandwidth) runs over that, and peers whose breakers refuse traffic are
// shed. When every source is gated the full ranked list returns with
// forced=true: a single-replica grid must not deadlock behind its only
// peer, so the attempt is admitted as an early reopen probe instead.
func (p *pull) rank() (avail []PFN, forced bool) {
	board := p.s.health
	order := p.sources
	if sel := p.s.cfg.Select; sel != nil {
		pick := sel(p.lfn, p.sources)
		order = append(make([]PFN, 0, len(p.sources)), pick)
		for _, c := range p.sources {
			if c != pick {
				order = append(order, c)
			}
		}
	}
	// Scores are snapshotted once: the comparator must not see a peer
	// change state mid-sort.
	type scored struct {
		pfn   PFN
		score health.Score
	}
	ranked := make([]scored, len(order))
	for i, c := range order {
		ranked[i] = scored{c, board.ScoreOf(c.Addr)}
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		return health.Healthier(ranked[a].score, ranked[b].score)
	})
	all := make([]PFN, len(ranked))
	for i, r := range ranked {
		all[i] = r.pfn
		if board.Usable(r.pfn.Addr) {
			avail = append(avail, r.pfn)
		}
	}
	if len(avail) > 0 {
		return avail, false
	}
	return all, true
}

// reserve fixes the landing path and charges the pool for the bytes about
// to arrive, so concurrent pulls cannot overcommit a bounded pool.
func (p *pull) reserve() error {
	s := p.s
	p.rel = p.entry.Attrs[attrPath]
	if p.rel == "" {
		p.rel = p.sources[0].Path
	}
	var err error
	if p.localPath, err = s.resolveLocal(p.rel); err != nil {
		return err
	}
	if err := durable.MkdirAll(filepath.Dir(p.localPath)); err != nil {
		return err
	}
	p.release = func() {}
	if s.storage != nil {
		size, _ := p.entry.Size()
		release, err := s.storage.Reserve(size)
		if err != nil {
			return fmt.Errorf("core: reserve %d bytes for %s: %w", size, p.lfn, err)
		}
		// Once-only: replicate defers it for the error paths, commit fires
		// it early on success.
		p.release = release
	}
	return nil
}

// fetch is the transfer step (staged at the source if needed). Attempts
// rotate through the replica locations, so a dead or corrupt source fails
// over to the next one under the same backoff policy. Each attempt
// re-ranks by live health; the healthiest other usable peer stands by as
// the hedge target.
func (p *pull) fetch(ctx context.Context) error {
	pol := p.s.retryPolicy("core.replicate")
	if pol.Attempts <= 0 {
		pol.Attempts = retry.DefaultPolicy().Attempts
	}
	pol.Attempts = max(pol.Attempts, len(p.sources)) // visit every replica at least once
	start := time.Now()
	err := pol.Do(ctx, func(attempt int) error {
		avail, forced := p.rank()
		src := avail[(attempt-1)%len(avail)]
		var backup *PFN
		for i := range avail {
			if avail[i].Addr != src.Addr && p.s.health.Usable(avail[i].Addr) {
				backup = &avail[i]
				break
			}
		}
		return p.fetchHedged(ctx, src, backup, forced)
	})
	p.fetchElapsed = time.Since(start)
	return err
}

// runLeg is one transfer leg against one source, begin to end: breaker
// admission, the source's concurrency slot, the transfer, and the leg's
// single outcome — one TransferRecord built after verify, told to the
// transfer log, the health board and the operator log alike. The primary
// leg and a hedge takeover both go through it. A leg canceled with a cause
// (the stall watchdog's) fails with that cause, not the cancellation. The
// stats are returned even on failure — the hedge watchdog's wasted-bytes
// ledger needs the partial byte counts.
func (p *pull) runLeg(ctx context.Context, src PFN, forced bool, alive func()) (gridftp.TransferStats, error) {
	s := p.s
	begin := s.health.Begin
	if forced {
		begin = s.health.BeginForced
	}
	end, ok := begin(src.Addr)
	if !ok {
		return gridftp.TransferStats{}, fmt.Errorf("%w: %s", errBreakerOpen, src.Addr)
	}
	// The source is only known here, after ranking, so the per-source
	// concurrency cap is enforced at this layer rather than at admission.
	// Blocking counts against the job, not the queue. A leg canceled while
	// it waits never became a transfer: the board hears of it, the transfer
	// log does not.
	var stats gridftp.TransferStats
	release, err := s.sched.AcquireSource(ctx, src.Addr)
	ran := err == nil
	if ran {
		stats, err = p.replicateFrom(ctx, src, alive)
		release()
	}
	if cause := context.Cause(ctx); err != nil && cause != nil && cause != ctx.Err() {
		err = cause
	}
	if ran {
		rec := TransferRecord{
			LFN: p.lfn, Source: src.Addr, Bytes: stats.Bytes,
			Elapsed: stats.Elapsed, Attempts: stats.Attempts,
			RateMbps: stats.RateMbps(), When: time.Now(),
		}
		if err != nil {
			rec.Failed = true
			rec.Error = err.Error()
		} else {
			s.met.transferBytes.Add(rec.Bytes)
			s.logger.Printf("gdmp[%s]: replicated %s from %s (%d bytes, %d attempts, %.2f Mbps)",
				s.cfg.Name, p.lfn, src.Addr, rec.Bytes, rec.Attempts, rec.RateMbps)
		}
		s.met.transfers.WithLabelValues(outcomeOf(err)).Inc()
		s.xferLog.add(rec)
	}
	end(stats.Bytes, stats.Elapsed, err)
	return stats, err
}

// replicateFrom moves the bytes for one leg: stage request, the Data
// Mover's secure, restartable, CRC-verified GridFTP retrieval (Section
// 4.3), and verification against the catalog. alive fires when the source
// accepts a transfer and again as data lands — the stall watchdog listens
// to it.
func (p *pull) replicateFrom(ctx context.Context, src PFN, alive func()) (gridftp.TransferStats, error) {
	s := p.s
	if err := p.stageAt(ctx, src); err != nil {
		return gridftp.TransferStats{}, err
	}
	pol := s.retryPolicy("gridftp.get")
	pol.Attempts = s.cfg.TransferAttempts
	pol.Retryable = nil // transfer failures are all retryable
	stats, err := gridftp.ReliableGetFileOpts(ctx, s.ftpConnect(src), src.Path, p.localPath, pol,
		gridftp.GetFileOptions{Progress: func(int64) { alive() }, Opening: alive, WrapWriter: s.cfg.StageWriter})
	if err != nil {
		return stats, err
	}
	return stats, p.verify(stats)
}

// ftpConnect builds the dial closure for one source's GridFTP endpoint:
// session options, per-source buffer tuning, and a scoreboard latency
// sample per successful dial. The transfer legs (one session per attempt)
// and the hedge's reachability check both use it.
func (s *Site) ftpConnect(src PFN) func(ctx context.Context) (*gridftp.Client, error) {
	return func(ctx context.Context) (*gridftp.Client, error) {
		opts := []gridftp.ClientOption{
			gridftp.WithParallelism(s.cfg.Parallelism),
			gridftp.WithTimeout(30 * time.Second),
			gridftp.WithMetrics(s.metrics),
		}
		if buf := s.bufferFor(src.Addr); buf > 0 {
			opts = append(opts, gridftp.WithBufferSize(buf))
		}
		if s.cfg.DialFunc != nil {
			opts = append(opts, gridftp.WithDialFunc(s.cfg.DialFunc))
		}
		start := time.Now()
		cl, err := gridftp.DialContext(ctx, src.Addr, s.cfg.Cred, s.cfg.TrustRoots, opts...)
		if err != nil {
			return nil, err
		}
		s.health.ObserveLatency(src.Addr, time.Since(start))
		if s.cfg.AutoTuneBuffers && s.cfg.BufferBytes == 0 && s.bufferFor(src.Addr) == 0 {
			// First contact with this source: run the negotiation once
			// and remember the outcome (the paper computes the optimum
			// per link, not per transfer).
			if buf, err := cl.AutoTune(src.Path, 512*1024); err == nil {
				s.tuneMu.Lock()
				s.tunedBuf[src.Addr] = buf
				s.tuneMu.Unlock()
				s.logger.Printf("gdmp[%s]: auto-tuned buffer for %s: %d bytes",
					s.cfg.Name, src.Addr, buf)
			} else {
				s.logger.Printf("gdmp[%s]: auto-tune against %s failed: %v",
					s.cfg.Name, src.Addr, err)
			}
		}
		return cl, nil
	}
}

// bufferFor returns the socket buffer to use against a source: the static
// configuration wins; otherwise a previously negotiated value, if any.
func (s *Site) bufferFor(addr string) int {
	if s.cfg.BufferBytes > 0 {
		return s.cfg.BufferBytes
	}
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	return s.tunedBuf[addr]
}

// stageAt has src's site bring the file onto disk before a disk-to-disk
// transfer, when the entry knows that site's control address.
func (p *pull) stageAt(ctx context.Context, src PFN) error {
	ctl := p.entry.Attrs[ctlAttrPrefix+src.Addr]
	if ctl == "" {
		return nil
	}
	if err := p.s.requestStage(ctx, ctl, p.lfn); err != nil {
		return fmt.Errorf("core: stage %s at %s: %w", p.lfn, src.Addr, err)
	}
	return nil
}

// requestStage asks the source site's GDMP server to bring the file onto
// disk before the disk-to-disk transfer (Section 4.4). The whole exchange
// retries as a unit: staging is idempotent at the source, and the dial
// already succeeded once so a fresh session is cheap.
func (s *Site) requestStage(ctx context.Context, ctlAddr, lfn string) error {
	pol := s.retryPolicy("core.stage")
	return pol.Do(ctx, func(attempt int) error {
		cl, err := rpc.DialContext(ctx, ctlAddr, s.cfg.Cred, s.cfg.TrustRoots, s.rpcDialOpts()...)
		if err != nil {
			return err
		}
		defer cl.Close()
		var e rpc.Encoder
		e.String(lfn)
		// The wire carries the retry attempt so an overloaded source can
		// shed the hottest retriers first.
		_, err = cl.CallContext(rpc.WithAttempt(ctx, attempt), MethodStage, &e)
		if errors.Is(err, admission.ErrOverloaded) {
			// Cool the peer on the scoreboard for the retry-after it
			// suggested, so queued work stops hammering it.
			s.health.ObserveOverload(ctlAddr, retry.RetryAfterOf(err))
		}
		return err
	})
}

// verify holds the landed bytes to the catalog's published CRC, not only
// to the source's current content (which the transfer already checked end
// to end): it is the guard against catalog/file drift. The transfer's own
// verification pass computed the CRC, so no byte is read again. A
// mismatch removes the local file and returns a retryable error, so the
// caller fails over to another replica.
func (p *pull) verify(stats gridftp.TransferStats) error {
	want := p.entry.Attrs[replica.AttrCRC]
	got := fmt.Sprintf("%08x", stats.CRC32)
	if want == "" || got == want {
		return nil
	}
	os.Remove(p.localPath)
	return fmt.Errorf("%w: %s catalog=%s local=%s", gridftp.ErrChecksum, p.lfn, want, got)
}

// commit makes the verified file a replica: landed locally (journaled)
// first, then registered with the replica catalog. The local catalog backs
// gdmp.digest, so this order means a crash or RC failure between the two
// leaves a local file without an RC entry — which the scrubber's location
// re-assertion heals — rather than an RC entry whose digest denies the
// file, which peers' anti-entropy rounds would withdraw as dangling.
func (p *pull) commit(ctx context.Context) error {
	s := p.s
	info, err := os.Stat(p.localPath)
	if err != nil {
		return err
	}
	myPFN := s.pfnFor(p.rel)
	fi := FileInfo{
		LFN: p.lfn, Path: myPFN.Path, Size: info.Size(),
		CRC32: p.entry.Attrs[replica.AttrCRC], FileType: p.ft.Name(), State: StateDisk,
	}
	if err := s.land(fi, p.release); err != nil {
		return err
	}
	if s.storage != nil {
		s.storage.NoteAccess(false, p.fetchElapsed)
		s.notePoolDemand(p.rel)
	}
	if err := s.rc.addReplica(ctx, p.lfn, myPFN); err != nil {
		return err
	}
	return s.rc.SetAttrs(ctx, p.lfn, map[string]string{ctlAttrPrefix + myPFN.Addr: s.Addr()})
}
