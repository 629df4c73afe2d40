package core

import (
	"context"
	"os"
	"sync"

	"gdmp/internal/admission"
	"gdmp/internal/parity"
	"gdmp/internal/scrub"
)

// LocateForPull runs the pull pipeline's locate stage alone, for the
// external test package (which can build a testbed grid; this one cannot
// import testbed without a cycle). It returns the remote sources it found.
func (s *Site) LocateForPull(ctx context.Context, lfn string) ([]PFN, error) {
	p := &pull{s: s, lfn: lfn}
	if err := p.locate(ctx); err != nil {
		return nil, err
	}
	return p.sources, nil
}

// SeverJournal closes the site's journal underneath it, so every later
// append fails and latches the journal failed (a full or faulted state
// disk, without the disk).
func (s *Site) SeverJournal() { s.persist.j.Close() }

// SidecarOnDisk reports whether a parity sidecar file lies next to the
// replica at the site-relative path.
func (s *Site) SidecarOnDisk(path string) bool {
	localPath, err := s.resolveLocal(path)
	if err != nil {
		return false
	}
	_, err = os.Stat(parity.SidecarPath(localPath))
	return err == nil
}

// RewriteSidecar drops lfn's parity sidecar and runs scrub's regeneration
// (write, then pool) on whatever bytes the replica holds now. It reports
// whether a sidecar file lies next to the replica afterwards.
func (s *Site) RewriteSidecar(lfn string) bool {
	fi, _ := s.local.get(lfn)
	s.dropParitySidecar(fi)
	s.writeParitySidecar(fi)
	s.poolSidecar(fi)
	return s.SidecarOnDisk(fi.Path)
}

// PeriodicScrubPass is the pass startLoops runs on the scrub interval.
func (s *Site) PeriodicScrubPass(ctx context.Context) (scrub.Report, error) {
	return s.scrubPass(ctx, true, false)
}

// Repair queues a repair pull of lfn, as a scrub or anti-entropy finding
// does.
func (s *Site) Repair(lfn string) bool { return s.repair(lfn) }

// HoldPullWorker occupies one pull worker until release is called or the
// site closes, so on a one-worker site every pull submitted meanwhile
// stays queued.
func (s *Site) HoldPullWorker() (release func()) {
	held, stop := make(chan struct{}), make(chan struct{})
	s.sched.Submit("test/hold", 1, func(ctx context.Context) error {
		close(held)
		select {
		case <-stop:
		case <-ctx.Done():
		}
		return nil
	})
	<-held
	return sync.OnceFunc(func() { close(stop) })
}

// HoldBulk takes one bulk admission slot, as a served transfer does,
// waiting in the bulk queue while every slot is held.
func (s *Site) HoldBulk() (release func(), err error) {
	return s.admit.Admit(s.ctx, admission.Bulk, admission.Request{})
}

// PeerUsable reports whether the site's scoreboard would rank addr as a
// pull source now.
func (s *Site) PeerUsable(addr string) bool { return s.health.Usable(addr) }

// ShedBackground makes admission refuse all background work from now on,
// as it does in a brownout.
func (s *Site) ShedBackground() { s.admit.Drain() }

// ExchangeWith runs one anti-entropy exchange with the subscriber at
// control address addr, serving from dataAddr, as if its gdmp.digest reply
// had been entries: a digest the test took earlier stands in for one that
// a landing overtook in flight.
func (s *Site) ExchangeWith(ctx context.Context, addr, dataAddr string, entries []scrub.Entry) scrub.ExchangeReport {
	var rep scrub.ExchangeReport
	s.exchange(ctx, antiEntropyPeer{addr: addr}, dataAddr, entries, &rep)
	return rep
}
