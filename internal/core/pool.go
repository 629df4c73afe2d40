package core

// Disk-pool cache semantics over the MSS (Section 4.4: the pool is "a data
// transfer cache for the Grid"). Staged and pulled replicas live in the
// capacity-bounded pool; when the pool evicts one, this file decides what
// the catalogs should say afterwards, and a small prefetcher brings hot
// collections in ahead of demand.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/mss"
	"gdmp/internal/obs"
	"gdmp/internal/replica"
)

// Pool returns the site's storage manager (nil without an MSS) — the
// handle the soak and crash harnesses use to drive and inspect the pool.
func (s *Site) Pool() *mss.MSS { return s.storage }

// initPool wires the MSS into the replication core: the gdmp_pool_*
// metric family and the eviction callback. Called from NewSite once both
// servers are listening, because the eviction path builds PFNs from the
// data address.
func (s *Site) initPool() {
	if s.storage == nil {
		return
	}
	s.poolMet = obs.NewPoolMetrics(s.metrics)
	s.storage.SetMetrics(s.poolMet)
	s.poolDemand = make(map[string]int)
	s.storage.SetOnEvict(s.onPoolEvict)
}

// onPoolEvict is the pool's eviction callback. The bytes are already gone
// when it runs, so the catalogs must stop promising them. Two cases:
//
//   - A tape-backed file (a producer original staged out earlier) falls
//     back to StateTape: its replica-catalog location stays valid because
//     a stage request restores the bytes on demand — the paper's
//     default-disk-location convention, and the reason the scrubber
//     re-asserts locations for tape-resident entries.
//   - A cache-only replica (pulled over the WAN, no tape copy) is
//     withdrawn outright: the local catalog entry is removed and
//     journaled first, then the replica-catalog location — so recovery
//     and scrub agree with the disk even when the site dies between the
//     two steps, and a peer's anti-entropy round heals the dangling
//     location such a crash can leave.
func (s *Site) onPoolEvict(name string, size int64) {
	fi, ok := s.local.getByPath(name)
	if !ok {
		return // not a cataloged replica (scratch bytes, test files)
	}
	if _, err := s.storage.TapeSize(name); err == nil {
		if err := s.persist.setState(fi.LFN, StateTape); err != nil {
			s.logger.Printf("gdmp[%s]: eviction of %s to tape: %v", s.cfg.Name, fi.LFN, err)
		}
		// The attached sidecar's bytes left the pool with the file; drop
		// what is left of it. A re-stage regenerates parity on the next
		// scrub pass.
		s.dropParitySidecar(fi)
		s.logger.Printf("gdmp[%s]: pool evicted %s (%d bytes) to tape residency", s.cfg.Name, fi.LFN, size)
		return
	}
	ctx, cancel := context.WithTimeout(s.ctx, 30*time.Second)
	defer cancel()
	s.withdrawLogged(ctx, fi, bytesKept)
	s.logger.Printf("gdmp[%s]: pool evicted %s (%d bytes), location withdrawn", s.cfg.Name, fi.LFN, size)
}

// notePoolDemand counts one cache miss against the file's collection (its
// directory prefix). When a collection crosses the configured threshold
// its remaining members are brought in ahead of demand: tape-resident
// members staged back to disk, catalog-listed members this site lacks
// pulled at background priority. Each collection prefetches once per
// process lifetime — the counter is accumulated demand evidence, not a
// sliding window.
func (s *Site) notePoolDemand(rel string) {
	if s.cfg.PrefetchThreshold <= 0 || s.storage == nil {
		return
	}
	dir := path.Dir(rel)
	if dir == "." || dir == "/" {
		return
	}
	s.prefMu.Lock()
	s.poolDemand[dir]++
	fire := s.poolDemand[dir] == s.cfg.PrefetchThreshold
	s.prefMu.Unlock()
	if fire {
		s.notifyWG.Add(1)
		go func() {
			defer s.notifyWG.Done()
			s.prefetchCollection(dir)
		}()
	}
}

// prefetchCollection warms one collection: local members without disk
// bytes are staged, and members of the matching replica-catalog
// collection that this site lacks are pulled below notification priority
// (a prefetch must never starve demand traffic). Failures are logged and
// skipped — prefetching is an optimization, not a promise.
func (s *Site) prefetchCollection(dir string) {
	if !s.admit.Allow("prefetch") {
		// Brownout: ahead-of-demand warming is the first thing to go.
		// The demand counter stays latched, so the collection is not
		// re-armed — a deliberate trade: prefetch is an optimization.
		return
	}
	ctx := s.ctx
	for _, fi := range s.local.list() {
		if path.Dir(fi.Path) != dir || fi.State == StateDisk {
			continue
		}
		if err := s.stageLocal(ctx, fi.LFN); err != nil {
			s.logger.Printf("gdmp[%s]: prefetch stage %s: %v", s.cfg.Name, fi.LFN, err)
			continue
		}
		s.poolMet.Prefetches.Inc()
	}
	lfns, err := s.rc.ListCollection(ctx, dir)
	if err != nil {
		if !errors.Is(err, replica.ErrNotFound) {
			s.logger.Printf("gdmp[%s]: prefetch list collection %s: %v", s.cfg.Name, dir, err)
		}
		return
	}
	for _, lfn := range lfns {
		if s.HasFile(lfn) {
			continue
		}
		s.submitGet(lfn, -1) // fire and forget; the scheduler dedups by LFN
		s.poolMet.Prefetches.Inc()
	}
}

// stageLocal ensures a published file is present in the disk pool, staging
// from the MSS when necessary; ctx interrupts the simulated tape waits.
func (s *Site) stageLocal(ctx context.Context, lfn string) error {
	fi, ok := s.local.get(lfn)
	if !ok {
		return fmt.Errorf("core: %q not published at %s", lfn, s.cfg.Name)
	}
	localPath, err := s.resolveLocal(fi.Path)
	if err != nil {
		return err
	}
	if _, err := os.Stat(localPath); err == nil {
		return s.persist.setState(lfn, StateDisk)
	}
	if s.storage == nil {
		return fmt.Errorf("core: %q missing on disk and no MSS configured", lfn)
	}
	s.notePoolDemand(fi.Path)
	if _, err := s.storage.StageContext(ctx, fi.Path); err != nil {
		return err
	}
	// The transfer itself re-reads from disk; unpin right away and rely on
	// the pool's recency to keep the file until the transfer completes.
	s.storage.Release(fi.Path)
	return s.persist.setState(lfn, StateDisk)
}

// stageServed is the GridFTP server's Stage hook: a data verb found a
// served path missing, so the published file behind it is staged from
// tape before the disk-to-disk transfer (Section 4.4), on the data mover's
// own session. A tape stage takes one bulk admission, as a gdmp.stage
// request does; the server calls the hook before a transfer's own
// admission, so the two are never held at once.
func (s *Site) stageServed(rel string) (err error) {
	defer func() { s.met.stageRequests.WithLabelValues(outcomeOf(err)).Inc() }()
	fi, ok := s.local.getByPath(rel)
	if !ok {
		return fmt.Errorf("core: %q not published at %s", rel, s.cfg.Name)
	}
	if s.storage != nil {
		release, err := s.admit.Admit(s.ctx, admission.Bulk, admission.Request{})
		if err != nil {
			return err
		}
		defer release()
	}
	return s.stageLocal(s.ctx, fi.LFN)
}

// ArchiveLocal pushes a published file's bytes to tape and (optionally)
// lets the pool evict the disk copy later; the catalog still lists the disk
// location, and a stage request restores it on demand (Section 4.4's
// default-disk-location convention).
func (s *Site) ArchiveLocal(lfn string) error {
	fi, ok := s.local.get(lfn)
	if !ok {
		return fmt.Errorf("core: %q not published at %s", lfn, s.cfg.Name)
	}
	if s.storage == nil {
		return errors.New("core: no MSS configured")
	}
	return s.storage.Archive(fi.Path)
}
