package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"gdmp/internal/durable"
	"gdmp/internal/gridftp"
	"gdmp/internal/health"
	"gdmp/internal/parity"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
	"gdmp/internal/xfer"
)

// This file is the pull path — the Data Mover pipeline of Section 4.1 —
// as one list of stages over one per-pull struct:
//
//	locate → rank → reserve → fetch → verify → commit
//
// locate, reserve, fetch and commit run once per pull, in that order, from
// replicate. rank runs at the top of every fetch attempt (the scoreboard
// moves between attempts), and verify closes every transfer leg, on the
// staged bytes before they are renamed into place (a source whose bytes
// fail the catalog's CRC must fail over like a dead one).

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
	// richer detail from its notification, or cataloged). A journal
	// failure degrades the pull to memory-only — the caller still holds
	// the ticket and no ack has gone to anyone yet, so losing it in a
	// crash is safe. The landing retires the intent (recPutFile).
	if err := s.persist.pullQueued(FileInfo{LFN: lfn}); err != nil {
		s.logger.Printf("gdmp[%s]: journal pull admission %s: %v", s.cfg.Name, lfn, err)
	}
	tk := s.sched.Submit(lfn, priority, func(jobCtx context.Context) error {
		if s.HasFile(lfn) {
			return nil
		}
		err := s.replicate(jobCtx, lfn)
		s.met.replications.WithLabelValues(outcomeOf(err)).Inc()
		if err != nil {
			// The intent stays journaled: pending once this job ends.
			s.logger.Printf("gdmp[%s]: pull %s: %v", s.cfg.Name, lfn, err)
			s.pending(lfn)
		}
		return err
	})
	s.pending("")
	return tk
}

// pull is one replication's working state, filled in stage by stage.
type pull struct {
	s   *Site
	lfn string

	// locate: the catalog entry, the replication plug-in it names, and
	// every remote replica, in catalog order.
	entry   *replica.LogicalFile
	ft      FileType
	sources []PFN

	// reserve: where the file lands, and the pool reservation covering it
	// until commit hands the bytes to the pool (a no-op without an MSS).
	rel       string
	localPath string
	release   func()

	// fetch: the sources tried in the current round (pick), and the wall
	// time across all attempts, the pool's miss latency.
	tried        []string
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
	p.sources, _, err = p.s.remoteSources(ctx, p.lfn)
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

// fetch is the transfer step. Each attempt runs one leg under the stall
// watchdog against the source pick chooses, under one backoff policy, so a
// dead, stalled or corrupt source fails over to the next one, and the next
// leg resumes the CRC-verified .part prefix the last one left. A source
// that refused the file (runLeg drops it) is not asked again, and once
// every source has refused, the pull stops.
func (p *pull) fetch(ctx context.Context) error {
	pol := p.s.retryPolicy("core.replicate")
	if pol.Attempts <= 0 {
		pol.Attempts = retry.DefaultPolicy().Attempts
	}
	pol.Attempts = max(pol.Attempts, len(p.sources)) // visit every replica at least once
	start := time.Now()
	err := pol.Do(ctx, func(int) error {
		src, forced := p.pick()
		err := p.watchLeg(ctx, src, forced)
		if len(p.sources) == 0 {
			return retry.Permanent(err)
		}
		return err
	})
	p.fetchElapsed = time.Since(start)
	return err
}

// pick is one attempt's source: the best-ranked source this pull has not
// tried in the current round. rank runs anew each time, so a source whose
// breaker opened meanwhile is shed and one whose probe came due leads; a
// source that just failed is not retried while another usable one is
// untried. Once every ranked source has had its turn, a new round starts.
func (p *pull) pick() (PFN, bool) {
	avail, forced := p.rank()
	src := avail[0]
	if i := slices.IndexFunc(avail, func(c PFN) bool { return !slices.Contains(p.tried, c.Addr) }); i >= 0 {
		src = avail[i]
	} else {
		p.tried = p.tried[:0]
	}
	p.tried = append(p.tried, src.Addr)
	return src, forced
}

// errStalled marks a pull leg whose byte stream went quiet past the stall
// deadline. It is deliberately a plain (retryable) error: the leg was
// canceled by our own watchdog, and surfacing the underlying
// context.Canceled would stop the failover loop dead.
var errStalled = errors.New("core: transfer stalled")

// errBreakerOpen marks a source refused by its circuit breaker. Retryable:
// the next attempt re-ranks and picks a different replica.
var errBreakerOpen = errors.New("core: source circuit breaker open")

// stallDeadline is the stall deadline for a pull from addr: the
// scoreboard's p99-derived value once the peer has history, the configured
// cold-start default before that, 0 when the watchdog is off.
func (s *Site) stallDeadline(addr string) time.Duration {
	if s.cfg.StallDeadline < 0 {
		return 0
	}
	if d := s.health.StallDeadline(addr); d > 0 {
		return d
	}
	return s.cfg.StallDeadline
}

// watchLeg runs one leg under the stall watchdog. The stall clock starts
// when the source accepts the transfer (its 150 reply): from then on bytes
// are due, so a source that opens its data streams and sends nothing is
// cut as surely as one that dies mid-stream. Before it the leg is setting
// up — the dial, the security handshake, the GridFTP session — and each of
// those exchanges is bounded by the session's own timeout (ftpConnect's),
// not by a deadline learned from earlier legs' byte streams: a loaded host
// that is slow to shake hands is not a stalled source. A leg that moves no
// bytes for the deadline is scored as a stall and canceled with errStalled
// as the cause, so it fails like any other leg.
func (p *pull) watchLeg(ctx context.Context, src PFN, forced bool) error {
	s := p.s
	legCtx, cancelLeg := context.WithCancelCause(ctx)
	defer cancelLeg(nil)

	// Zero until the source accepts the transfer, then the time of the
	// latest landed bytes.
	var lastProgress atomic.Int64
	alive := func() { lastProgress.Store(time.Now().UnixNano()) }

	done := make(chan error, 1)
	go func() { done <- p.runLeg(legCtx, src, forced, alive) }()
	deadline := s.stallDeadline(src.Addr)
	if deadline <= 0 {
		return <-done
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		select {
		case err := <-done:
			return err
		case <-timer.C:
		}
		last := lastProgress.Load()
		if last == 0 {
			timer.Reset(deadline) // still setting up: not the watchdog's
			continue
		}
		if idle := time.Since(time.Unix(0, last)); idle < deadline {
			timer.Reset(deadline - idle)
			continue
		}
		s.health.ObserveStall(src.Addr)
		cancelLeg(fmt.Errorf("%w: %s moved no bytes for %v pulling %s",
			errStalled, src.Addr, deadline, p.lfn))
		return <-done
	}
}

// runLeg is one transfer leg against one source, begin to end: breaker
// admission, the source's concurrency slot, the transfer, and the leg's
// single outcome — one TransferRecord built after verify, told to the
// transfer log, the health board and the operator log alike. A leg
// canceled with a cause (the stall watchdog's) fails with that cause, not
// the cancellation.
func (p *pull) runLeg(ctx context.Context, src PFN, forced bool, alive func()) error {
	s := p.s
	begin := s.health.Begin
	if forced {
		begin = s.health.BeginForced
	}
	end, ok := begin(src.Addr)
	if !ok {
		return fmt.Errorf("%w: %s", errBreakerOpen, src.Addr)
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
	var re *gridftp.ReplyError
	switch {
	case !errors.As(err, &re):
	case re.Code == 450:
		// The source's admission refused the transfer (busy, retry later):
		// hold it out of rank for the reopen delay, so queued work stops
		// hammering it.
		s.health.ObserveOverload(src.Addr, 0)
	case re.Code >= 500:
		// A permanent refusal (the file is not there and could not be
		// staged, or access is denied): asking again cannot help.
		p.sources = slices.DeleteFunc(p.sources, func(c PFN) bool { return c.Addr == src.Addr })
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
	return err
}

// replicateFrom moves the bytes for one leg: the Data Mover's secure,
// restartable, CRC-verified GridFTP retrieval (Section 4.3), whose first
// SIZE has the source stage a tape-resident file onto disk (Section 4.4),
// and verification against the catalog. alive fires when the source
// accepts a transfer and again as data lands — the stall watchdog listens
// to it.
func (p *pull) replicateFrom(ctx context.Context, src PFN, alive func()) (gridftp.TransferStats, error) {
	s := p.s
	pol := s.retryPolicy("gridftp.get")
	pol.Attempts = s.cfg.TransferAttempts
	pol.Retryable = nil // transfer failures are all retryable
	opts := gridftp.GetFileOptions{Progress: func(int64) { alive() }, Opening: alive, WrapWriter: s.cfg.StageWriter}
	if p.entry.Attrs[replica.AttrCRC] != "" {
		opts.Verify = p.verify
	}
	stats, err := gridftp.ReliableGetFileOpts(ctx, s.ftpConnect(src), src.Path, p.localPath, pol, opts)
	if err != nil {
		// A landing that failed after its check (the fsync or the rename)
		// takes the sidecar the check wrote along, unless the path already
		// lands a replica here.
		if _, landed := s.local.getByPath(s.pfnFor(p.rel).Path); !landed {
			os.Remove(parity.SidecarPath(p.localPath))
		}
	}
	return stats, err
}

// ftpConnect builds the dial closure for one source's GridFTP endpoint:
// session options, per-source buffer tuning, and a scoreboard latency
// sample per successful dial. Every transfer leg dials through it, one
// session per attempt.
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

// verify is the landing check of every leg whose file the catalog gives a
// CRC: it holds the staged bytes to that published CRC — the guard against
// catalog/file drift, and the end-to-end check, so the source is not asked
// for a whole-file CKSM — in the landing's one read of them (protect),
// which with parity on also encodes their sidecar. It runs while the
// staged file is fsynced, before it is renamed into place and journaled; a
// mismatch leaves no sidecar and fails the leg with ErrChecksum, so the
// caller fails over to another replica. A catalog entry without a CRC
// takes the source's CKSM.
func (p *pull) verify(staged string) error {
	size, _ := p.entry.Size()
	if _, err := p.s.protect(staged, p.localPath, size, p.entry.Attrs[replica.AttrCRC]); err != nil {
		return fmt.Errorf("%s: %w", p.lfn, err)
	}
	return nil
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
	return s.rc.addReplica(ctx, p.lfn, myPFN)
}
