package core

// Self-healing: the site-specific verbs behind internal/scrub's machinery.
// The scrubber walks the local catalog re-checksumming bytes, the
// anti-entropy pass swaps digests with producers and subscribers, and
// both hand what they withdrew or found missing to repair, which is one
// scheduler pull through the ordinary pipeline. Package scrub owns
// pacing, diffing and metrics; this file owns what "verify",
// "quarantine" and "re-replicate" mean against a live catalog and
// scheduler, and startLoops runs the passes on their intervals.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/parity"
	"gdmp/internal/replica"
	"gdmp/internal/rpc"
	"gdmp/internal/scrub"
)

// Additional GDMP RPC methods for the self-healing layer.
const (
	// MethodDigest returns the site's integrity digest: its name, its
	// GridFTP endpoint, and one (LFN, size, CRC) entry per local replica.
	MethodDigest = "gdmp.digest"

	// MethodFsck runs a full scrub pass on demand and returns its report.
	MethodFsck = "gdmp.fsck"
)

// initScrub builds the self-healing runtime: metrics and the rate
// limiter. Called from NewSite before the servers start (the digest/fsck
// handlers need it); the periodic passes start later, once recovery has
// resumed. The producer set and the pass cursor they work from are tables
// of s.persist, already replayed.
func (s *Site) initScrub() {
	s.scrubMet = scrub.NewMetrics(s.metrics)
	s.scrubLim = scrub.NewLimiter(s.cfg.ScrubRateBytes)
	s.repairs = make(map[string]chan struct{})
}

// startLoops starts the site's periodic work, each on its own interval
// (zero = off): the scrub pass, the anti-entropy round and the RLI digest
// push. It runs after recovery, so recovered pulls are queued before the
// first pass can look for gaps. Periodic passes yield to brownout and the
// next tick tries again, so integrity work is deferred, never lost; an
// operator's Fsck or an explicit pass is not gated.
func (s *Site) startLoops() {
	s.every(s.cfg.ScrubInterval, func() {
		rep, err := s.scrubPass(s.ctx, true, false)
		switch {
		case s.ctx.Err() != nil:
		case err != nil:
			s.logger.Printf("gdmp[%s]: scrub pass: %v", s.cfg.Name, err)
		case rep.Corrupt+rep.Missing > 0:
			s.logger.Printf("gdmp[%s]: scrub pass scanned %d files (%d bytes): %d corrupt, %d missing, %d repairs queued",
				s.cfg.Name, rep.Scanned, rep.Bytes, rep.Corrupt, rep.Missing, rep.Repairs)
		}
	})
	s.every(s.cfg.AntiEntropyInterval, func() {
		if !s.admit.Allow("antientropy") {
			return
		}
		rep, err := s.AntiEntropyPass(s.ctx)
		switch {
		case s.ctx.Err() != nil:
		case err != nil:
			s.logger.Printf("gdmp[%s]: anti-entropy: %v", s.cfg.Name, err)
		case rep.Missing+rep.Stale+rep.Dangling > 0:
			s.logger.Printf("gdmp[%s]: anti-entropy round over %d peers (%d failed): %d missing, %d stale, %d dangling, %d repairs queued",
				s.cfg.Name, rep.Peers, rep.Failed, rep.Missing, rep.Stale, rep.Dangling, rep.Repairs)
		}
	})
	if s.cfg.DigestInterval > 0 {
		// The first push goes out at once, so the site is RLI-routable as
		// soon as it is up.
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			s.pushDigestLogged()
		}()
	}
	s.every(s.cfg.DigestInterval, s.pushDigestLogged)
}

// every runs pass on each tick of interval until the site closes; a zero
// interval runs nothing. The first pass comes a full interval after the
// start, so a restarting site finishes recovery before it re-reads its
// disk. teardown waits for the pass in flight.
func (s *Site) every(interval time.Duration, pass func()) {
	if interval <= 0 {
		return
	}
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				pass()
			case <-s.ctx.Done():
				return
			}
		}
	}()
}

// repair re-replicates a replica the site withdrew or never got: one
// scheduler pull at below-normal priority, so repairs never starve
// notification-driven pulls, journaled as a pull intent from the moment
// it is queued. It reports whether lfn was newly queued; a repair already
// outstanding coalesces. The pull's own failover across sources is the
// only retry: a repair that fails is dropped and counted, and since the
// file stays withdrawn the next scrub or anti-entropy round finds it
// again. Shutdown is not a verdict — the journaled intent requeues the
// pull at the next start.
func (s *Site) repair(lfn string) bool {
	s.repairMu.Lock()
	if _, ok := s.repairs[lfn]; ok {
		s.repairMu.Unlock()
		return false
	}
	done := make(chan struct{})
	s.repairs[lfn] = done
	s.scrubMet.RepairDepth.Set(int64(len(s.repairs)))
	s.repairMu.Unlock()

	s.scrubMet.RepairAttempts.Inc()
	tk := s.submitGet(lfn, -1)
	s.notifyWG.Add(1)
	go func() {
		defer s.notifyWG.Done()
		switch err := tk.Wait(s.ctx); {
		case s.ctx.Err() != nil:
		case err != nil:
			s.scrubMet.RepairFailure.Inc()
			s.logger.Printf("gdmp[%s]: repair %s failed: %v", s.cfg.Name, lfn, err)
		default:
			s.scrubMet.RepairSuccess.Inc()
			// Degraded-mode accounting: these bytes crossed the WAN again
			// because local reconstruction was impossible (or parity is off).
			if fi, ok := s.local.get(lfn); ok {
				s.scrubMet.RepairBytesRepulled.Add(fi.Size)
			}
		}
		s.repairMu.Lock()
		delete(s.repairs, lfn)
		s.scrubMet.RepairDepth.Set(int64(len(s.repairs)))
		s.repairMu.Unlock()
		close(done)
	}()
	return true
}

// RepairQuiesce blocks until no repair is outstanding or ctx is done
// (test barrier: "the round finished").
func (s *Site) RepairQuiesce(ctx context.Context) error {
	for {
		var next chan struct{}
		s.repairMu.Lock()
		for _, done := range s.repairs {
			next = done
			break
		}
		s.repairMu.Unlock()
		if next == nil {
			return nil
		}
		select {
		case <-next:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// --- local scrubber ---------------------------------------------------------

// setScrubCursor advances the journaled pass cursor. Best-effort: losing
// it only costs re-verification after a crash.
func (s *Site) setScrubCursor(lfn string) {
	if err := s.persist.scrubCursor(lfn); err != nil {
		s.logger.Printf("gdmp[%s]: journal scrub cursor: %v", s.cfg.Name, err)
	}
}

// ScrubPass walks the local catalog once in LFN order, re-reading each
// disk replica at the configured byte rate and comparing its CRC against
// the cataloged value. Corrupt bytes are quarantined and the replica
// withdrawn from both catalogs; missing bytes just withdraw. Every
// withdrawal queues a repair. The cursor is journaled after each file, so
// a crash mid-pass resumes where it stopped instead of re-reading the
// verified prefix. One pass runs at a time.
func (s *Site) ScrubPass(ctx context.Context) (scrub.Report, error) {
	return s.scrubPass(ctx, false, false)
}

// scrubPass is ScrubPass; a periodic one asks admission before every file
// and again before it counts itself complete, so a brownout sheds the pass
// in flight, not only the ones that have yet to start (with a byte-rate
// limit a pass can outlast many brownouts). A pass that yields keeps its
// cursor, and a later tick resumes it. fromStart abandons any journaled
// cursor under the same hold of scrubMu as the scan, so no other pass can
// leave one behind in between.
func (s *Site) scrubPass(ctx context.Context, periodic, fromStart bool) (scrub.Report, error) {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	start := time.Now()
	shed := func() bool { return periodic && !s.admit.Allow("scrub") }

	var rep scrub.Report
	if fromStart {
		s.setScrubCursor("")
	}
	s.persist.st.tabMu.Lock()
	cursor := s.persist.st.scrubCursor
	s.persist.st.tabMu.Unlock()
	rep.Resumed = cursor != ""

	// The snapshot is taken once; files published mid-pass are covered by
	// the next pass. list() is LFN-sorted, so the cursor is a plain bound.
	for _, fi := range s.local.list() {
		if fi.LFN <= cursor {
			continue
		}
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if shed() {
			return rep, nil
		}
		verdict, bytes := s.scrubOne(ctx, fi)
		rep.Scanned++
		rep.Bytes += bytes
		s.scrubMet.ScrubScanned.Inc()
		s.scrubMet.ScrubBytes.Add(bytes)
		switch verdict {
		case scrubCorrupt:
			rep.Corrupt++
			s.scrubMet.ScrubCorrupt.Inc()
			if s.parityParams().Enabled() {
				// On a parity site every quarantine+re-pull is a fallback:
				// the damage exceeded the parity budget or the sidecar was
				// unusable.
				rep.Fallbacks++
			}
			if s.repair(fi.LFN) {
				rep.Repairs++
			}
		case scrubMissing:
			rep.Missing++
			s.scrubMet.ScrubMissing.Inc()
			if s.repair(fi.LFN) {
				rep.Repairs++
			}
		case scrubAborted:
			return rep, ctx.Err()
		case scrubRepaired:
			rep.Rebuilt++
			fallthrough
		case scrubOK, scrubSkipped:
			// Healthy (or tape-resident) replica: re-assert its location.
			// addReplica is idempotent, so this is a no-op in the steady
			// state, but it converges back any location a peer's
			// anti-entropy round withdrew on a stale digest.
			if err := s.rc.addReplica(ctx, fi.LFN, s.pfnFor(fi.Path)); err != nil && !errors.Is(err, replica.ErrNotFound) {
				s.logger.Printf("gdmp[%s]: scrub: re-assert location of %s: %v", s.cfg.Name, fi.LFN, err)
			}
		}
		s.setScrubCursor(fi.LFN)
	}
	if shed() {
		return rep, nil
	}
	s.scrubMet.ScrubPasses.Inc()
	s.setScrubCursor("")
	s.scrubMet.ScrubPassSeconds.Observe(time.Since(start).Seconds())
	s.sweepQuarantine()
	s.sweepOrphanSidecars()
	return rep, nil
}

// Fsck is the on-demand full integrity check behind the gdmp fsck
// subcommand: it abandons any journaled mid-pass cursor and scrubs the
// whole catalog from the start.
func (s *Site) Fsck(ctx context.Context) (scrub.Report, error) {
	return s.scrubPass(ctx, false, true)
}

type scrubVerdict int

const (
	scrubOK scrubVerdict = iota
	scrubCorrupt
	scrubMissing
	scrubSkipped
	scrubAborted
	scrubRepaired
)

// scrubOne verifies a single catalog entry's bytes. Tape-state files have
// no disk bytes to check and are skipped. On a parity-enabled site the
// verification is block-granular: a usable sidecar's geometry drives a
// per-block digest, and corruption is first rebuilt in place from the
// surviving blocks plus parity (scrubRepaired). Only damage beyond the
// parity budget — or a replica without a usable sidecar — takes the old
// quarantine + WAN re-pull path.
func (s *Site) scrubOne(ctx context.Context, fi FileInfo) (scrubVerdict, int64) {
	if fi.State != StateDisk {
		return scrubSkipped, 0
	}
	localPath, err := s.resolveLocal(fi.Path)
	if err != nil {
		return scrubSkipped, 0
	}
	parityOn := s.parityParams().Enabled()
	var sc *parity.Sidecar
	var blockSize int64
	if parityOn {
		if sc = s.loadSidecar(fi, localPath); sc != nil {
			blockSize = sc.BlockSize
		}
	}
	crc, blocks, n, err := scrub.BlockCRC32File(ctx, localPath, blockSize, s.scrubLim)
	switch {
	case os.IsNotExist(err):
		s.logger.Printf("gdmp[%s]: scrub: %s has no bytes at %s, withdrawing",
			s.cfg.Name, fi.LFN, fi.Path)
		s.withdrawLogged(ctx, fi, bytesKept)
		return scrubMissing, 0
	case ctx.Err() != nil:
		return scrubAborted, n
	case err != nil:
		s.logger.Printf("gdmp[%s]: scrub: read %s: %v", s.cfg.Name, fi.LFN, err)
		return scrubSkipped, n
	}
	if fi.CRC32 == "" || fmt.Sprintf("%08x", crc) == fi.CRC32 {
		if parityOn && sc == nil {
			// Healthy bytes without a usable sidecar (pre-parity replica,
			// sidecar rot, or post-fallback re-pull): regenerate now, while
			// the content is known good.
			s.writeParitySidecar(fi)
		}
		return scrubOK, n
	}
	if sc != nil {
		damaged := sc.DamagedBlocks(blocks)
		s.logger.Printf("gdmp[%s]: scrub: %s is corrupt (crc %08x, catalog %s; %d damaged blocks), attempting local rebuild",
			s.cfg.Name, fi.LFN, crc, fi.CRC32, len(damaged))
		if rerr := s.parityRebuild(fi, localPath, sc); rerr == nil {
			return scrubRepaired, n
		} else if ctx.Err() != nil {
			return scrubAborted, n
		} else {
			s.logger.Printf("gdmp[%s]: scrub: local rebuild of %s failed: %v (falling back to re-pull)",
				s.cfg.Name, fi.LFN, rerr)
		}
	}
	if parityOn {
		s.scrubMet.ParityFallbacks.Inc()
	}
	s.logger.Printf("gdmp[%s]: scrub: %s is corrupt (crc %08x, catalog %s), quarantining",
		s.cfg.Name, fi.LFN, crc, fi.CRC32)
	s.withdrawLogged(ctx, fi, bytesQuarantined)
	return scrubCorrupt, n
}

// withdrawLogged is withdraw for the background paths (scrub verdicts, pool
// evictions), which have no caller to hand the error to.
func (s *Site) withdrawLogged(ctx context.Context, fi FileInfo, fate bytesFate) {
	if err := s.withdraw(ctx, fi, fate, true); err != nil {
		s.logger.Printf("gdmp[%s]: withdraw %s: %v", s.cfg.Name, fi.LFN, err)
	}
}

// --- quarantine retention ---------------------------------------------------

// sweepQuarantine bounds <StateDir>/quarantine by age and count per the
// site config (zero = unlimited). Oldest entries go first when the count
// cap bites, so recent evidence survives.
func (s *Site) sweepQuarantine() {
	if s.cfg.StateDir == "" {
		return
	}
	qdir := s.quarantineDir()
	ents, err := os.ReadDir(qdir)
	if err != nil {
		if !os.IsNotExist(err) {
			s.logger.Printf("gdmp[%s]: quarantine sweep: %v", s.cfg.Name, err)
		}
		s.scrubMet.QuarantineFiles.Set(0)
		return
	}
	type qfile struct {
		name string
		mod  time.Time
	}
	files := make([]qfile, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, qfile{e.Name(), info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })

	doomed := 0
	if maxAge := s.cfg.QuarantineMaxAge; maxAge > 0 {
		cutoff := time.Now().Add(-maxAge)
		for doomed < len(files) && files[doomed].mod.Before(cutoff) {
			doomed++
		}
	}
	if maxCount := s.cfg.QuarantineMaxCount; maxCount > 0 && len(files)-doomed > maxCount {
		doomed = len(files) - maxCount
	}
	for _, f := range files[:doomed] {
		if err := os.Remove(filepath.Join(qdir, f.name)); err != nil {
			s.logger.Printf("gdmp[%s]: quarantine sweep %s: %v", s.cfg.Name, f.name, err)
			continue
		}
		s.scrubMet.QuarantineSwept.Inc()
	}
	s.scrubMet.QuarantineFiles.Set(int64(len(files) - doomed))
}

// --- anti-entropy exchange ---------------------------------------------------

// addProducer durably records a producer this site subscribed to, making
// it an anti-entropy peer across restarts.
func (s *Site) addProducer(addr string) {
	if err := s.persist.producerAdd(addr); err != nil {
		s.logger.Printf("gdmp[%s]: journal producer %s: %v", s.cfg.Name, addr, err)
	}
}

// removeProducer forgets a producer after unsubscription.
func (s *Site) removeProducer(addr string) {
	if err := s.persist.producerRemove(addr); err != nil {
		s.logger.Printf("gdmp[%s]: journal producer removal %s: %v", s.cfg.Name, addr, err)
	}
}

// localDigest snapshots the site's integrity digest.
func (s *Site) localDigest() []scrub.Entry {
	files := s.local.list()
	out := make([]scrub.Entry, 0, len(files))
	for _, fi := range files {
		out = append(out, scrub.Entry{LFN: fi.LFN, Size: fi.Size, CRC32: fi.CRC32})
	}
	return out
}

// digestFrom fetches a peer's digest over the gdmp.digest verb.
func (s *Site) digestFrom(ctx context.Context, addr string) (name, dataAddr string, entries []scrub.Entry, err error) {
	d, err := s.call(ctx, addr, MethodDigest, nil)
	if err != nil {
		return "", "", nil, err
	}
	name = d.String()
	dataAddr = d.String()
	n := d.Uint32()
	// n is wire-supplied: cap the preallocation so one malformed reply
	// cannot trigger a multi-GB allocation; append grows past the cap.
	entries = make([]scrub.Entry, 0, min(n, 4096))
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		entries = append(entries, scrub.Entry{LFN: d.String(), Size: d.Int64(), CRC32: d.String()})
	}
	if err := d.Finish(); err != nil {
		return "", "", nil, err
	}
	return name, dataAddr, entries, nil
}

// antiEntropyPeer describes one digest-exchange partner.
type antiEntropyPeer struct {
	addr     string
	producer bool // we subscribe to it, so its files are owed to us
}

// antiEntropyPeers is the union of producers (sites we subscribed to) and
// subscribers (sites subscribed to us). A site that is both is a producer
// for pull purposes.
func (s *Site) antiEntropyPeers() []antiEntropyPeer {
	seen := make(map[string]bool)
	var peers []antiEntropyPeer
	tbl := &s.persist.st
	tbl.tabMu.Lock()
	for addr := range tbl.producers {
		if !seen[addr] {
			seen[addr] = true
			peers = append(peers, antiEntropyPeer{addr: addr, producer: true})
		}
	}
	tbl.tabMu.Unlock()
	tbl.subMu.Lock()
	for _, st := range tbl.subs {
		if !seen[st.addr] {
			seen[st.addr] = true
			peers = append(peers, antiEntropyPeer{addr: st.addr})
		}
	}
	tbl.subMu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].addr < peers[j].addr })
	return peers
}

// AntiEntropyPass exchanges digests with every producer and subscriber
// and converges on the differences:
//
//   - files a producer holds that we lack (lost notification, crash
//     window) are queued as repairs — the subscription contract owes us
//     those bytes;
//   - entries whose size/CRC disagree with a peer make us re-verify our
//     own bytes against our own cataloged CRC; if they fail, the replica
//     is quarantined, withdrawn, and queued for repair (the peer's side
//     heals on its own round);
//   - replica-catalog locations that point at a peer which no longer
//     holds the file — or at us for a file we lost — are withdrawn as
//     dangling.
//
// Peer failures are counted and skipped: one dead site must not stop the
// round.
func (s *Site) AntiEntropyPass(ctx context.Context) (scrub.ExchangeReport, error) {
	var rep scrub.ExchangeReport
	s.scrubMet.AERounds.Inc()
	for _, peer := range s.antiEntropyPeers() {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Peers++
		_, peerData, entries, err := s.digestFrom(ctx, peer.addr)
		if err != nil {
			rep.Failed++
			s.scrubMet.AEPeers.WithLabelValues("error").Inc()
			s.logger.Printf("gdmp[%s]: anti-entropy: digest from %s: %v", s.cfg.Name, peer.addr, err)
			continue
		}
		s.scrubMet.AEPeers.WithLabelValues("ok").Inc()
		diff := scrub.Compare(s.localDigest(), entries)

		if peer.producer {
			for _, e := range diff.Missing {
				rep.Missing++
				s.scrubMet.AEDiffs.WithLabelValues(scrub.DiffMissing).Inc()
				// Both digests in the diff are snapshots: a pull of this
				// LFN may have landed since ours was taken. Re-check the
				// live catalog immediately before acting, or a freshly
				// registered location gets withdrawn as dangling and the
				// replica turns invisible to the grid.
				lfn := e.LFN
				if s.HasFile(lfn) {
					continue
				}
				if s.dropDanglingLocation(ctx, lfn, s.DataAddr(), func() bool {
					return !s.HasFile(lfn)
				}) {
					rep.Dangling++
				}
				if s.repair(lfn) {
					rep.Repairs++
				}
			}
		}
		for _, e := range diff.Stale {
			rep.Stale++
			s.scrubMet.AEDiffs.WithLabelValues(scrub.DiffStale).Inc()
			// Serialized with the background scrubber: both paths
			// quarantine and withdraw, and racing them on the same file
			// double-counts corrupt/missing metrics. The entry is re-read
			// under the lock so a replica the scrubber already withdrew
			// is not withdrawn twice.
			s.scrubMu.Lock()
			if fi, ok := s.local.get(e.LFN); ok {
				if verdict, _ := s.scrubOne(ctx, fi); verdict == scrubCorrupt || verdict == scrubMissing {
					if s.repair(fi.LFN) {
						rep.Repairs++
					}
				}
			}
			s.scrubMu.Unlock()
		}
		// A location pointing at the peer for a file its digest lacks is
		// dangling: a consumer routed there would fail its pull. The
		// digest may predate a pull that has since landed there, so the
		// peer is point-queried right before the withdrawal and the
		// location left alone unless its LRC confirms the file is absent —
		// a skipped withdrawal waits one round, a wrong one orphans a valid
		// replica.
		for _, e := range diff.Extra {
			lfn := e.LFN
			if s.dropDanglingLocation(ctx, lfn, peerData, func() bool {
				ans, err := s.LRCQuery(ctx, peer.addr, lfn)
				if err != nil {
					s.logger.Printf("gdmp[%s]: anti-entropy: re-verify %s at %s: %v",
						s.cfg.Name, lfn, peer.addr, err)
					return false
				}
				return !ans.Has
			}) {
				rep.Dangling++
			}
		}
	}
	return rep, nil
}

// dropDanglingLocation withdraws the replica-catalog location of lfn at
// dataAddr when present, reporting whether a withdrawal happened. The
// confirm hook runs only once a matching location is found, immediately
// before its removal: it re-verifies the "dangling" verdict against live
// state (the digests that produced it are snapshots) and vetoes the
// withdrawal by returning false.
func (s *Site) dropDanglingLocation(ctx context.Context, lfn, dataAddr string, confirm func() bool) bool {
	locs, err := s.rc.locations(ctx, lfn)
	if err != nil {
		if !errors.Is(err, replica.ErrNotFound) {
			s.logger.Printf("gdmp[%s]: anti-entropy: locations of %s: %v", s.cfg.Name, lfn, err)
		}
		return false
	}
	for _, p := range locs {
		if p.Addr != dataAddr {
			continue
		}
		if confirm != nil && !confirm() {
			return false
		}
		if err := s.rc.RemoveReplica(ctx, lfn, p.String()); err != nil && !errors.Is(err, replica.ErrNotFound) {
			s.logger.Printf("gdmp[%s]: anti-entropy: withdraw dangling %s at %s: %v",
				s.cfg.Name, lfn, dataAddr, err)
			return false
		}
		s.scrubMet.AEDiffs.WithLabelValues(scrub.DiffDangling).Inc()
		s.logger.Printf("gdmp[%s]: anti-entropy: withdrew dangling location of %s at %s",
			s.cfg.Name, lfn, dataAddr)
		return true
	}
	return false
}

// --- RPC handlers -----------------------------------------------------------

// registerScrubHandlers wires the digest and fsck verbs into the Request
// Manager (called from registerHandlers).
func (s *Site) registerScrubHandlers() {
	s.gdmpSrv.Handle(MethodDigest, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		entries := s.localDigest()
		resp.String(s.cfg.Name)
		resp.String(s.DataAddr())
		resp.Uint32(uint32(len(entries)))
		for _, e := range entries {
			resp.String(e.LFN)
			resp.Int64(e.Size)
			resp.String(e.CRC32)
		}
		return nil
	})
	s.gdmpSrv.Handle(MethodFsck, func(ctx context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		rep, err := s.Fsck(ctx)
		if err != nil {
			return err
		}
		encodeFsckReply(resp, rep)
		return nil
	})
}

// encodeFsckReply writes a scrub report as the gdmp.fsck reply; field
// order is the wire layout DecodeFsckReply reads.
func encodeFsckReply(e *rpc.Encoder, rep scrub.Report) {
	e.Uint64(uint64(rep.Scanned))
	e.Int64(rep.Bytes)
	e.Uint64(uint64(rep.Corrupt))
	e.Uint64(uint64(rep.Missing))
	e.Uint64(uint64(rep.Repairs))
	e.Uint64(uint64(rep.Rebuilt))
	e.Uint64(uint64(rep.Fallbacks))
}

// DecodeFsckReply reads one complete gdmp.fsck reply: the one decoder of
// its layout, shared with the gdmp CLI.
func DecodeFsckReply(d *rpc.Decoder) (scrub.Report, error) {
	rep := scrub.Report{
		Scanned:   int(d.Uint64()),
		Bytes:     d.Int64(),
		Corrupt:   int(d.Uint64()),
		Missing:   int(d.Uint64()),
		Repairs:   int(d.Uint64()),
		Rebuilt:   int(d.Uint64()),
		Fallbacks: int(d.Uint64()),
	}
	return rep, d.Finish()
}

// quarantineDir returns <StateDir>/quarantine.
func (s *Site) quarantineDir() string {
	return filepath.Join(s.cfg.StateDir, "quarantine")
}
