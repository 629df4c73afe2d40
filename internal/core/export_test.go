package core

import (
	"context"
	"sync"

	"gdmp/internal/scrub"
)

// LocateForPull runs the pull pipeline's locate stage alone, for the
// external test package (which can build a testbed grid; this one cannot
// import testbed without a cycle). It returns the stage's outputs: the
// remote sources and the entry attrs the later stages read.
func (s *Site) LocateForPull(ctx context.Context, lfn string) ([]PFN, map[string]string, error) {
	p := &pull{s: s, lfn: lfn}
	if err := p.locate(ctx); err != nil {
		return nil, nil, err
	}
	return p.sources, p.entry.Attrs, nil
}

// SeverJournal closes the site's journal underneath it, so every later
// append fails and latches the journal failed (a full or faulted state
// disk, without the disk).
func (s *Site) SeverJournal() { s.persist.j.Close() }

// SidecarJournaled reports whether the sidecar registry holds a record
// for lfn.
func (s *Site) SidecarJournaled(lfn string) bool {
	s.persist.st.tabMu.Lock()
	defer s.persist.st.tabMu.Unlock()
	_, ok := s.persist.st.parity[lfn]
	return ok
}

// RewriteSidecar drops lfn's parity sidecar and runs the landing path's
// sidecar step again on whatever bytes the replica holds now. It reports
// whether the registry holds a sidecar for lfn afterwards.
func (s *Site) RewriteSidecar(lfn string) bool {
	fi, _ := s.local.get(lfn)
	s.dropParitySidecar(fi)
	s.writeParitySidecar(fi)
	return s.SidecarJournaled(lfn)
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

// ShedBackground makes admission refuse all background work from now on,
// as it does in a brownout.
func (s *Site) ShedBackground() { s.admit.Drain() }
