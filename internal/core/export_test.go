package core

import "context"

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

// SidecarJournaled reports whether the journal's mirror holds a parity
// sidecar record for lfn.
func (s *Site) SidecarJournaled(lfn string) bool {
	_, ok := s.persist.recoveredParity()[lfn]
	return ok
}

// RewriteSidecar drops lfn's parity sidecar and runs the landing path's
// sidecar step again on whatever bytes the replica holds now. It reports
// whether the in-memory registry holds a sidecar for lfn afterwards.
func (s *Site) RewriteSidecar(lfn string) bool {
	fi, _ := s.local.get(lfn)
	s.dropParitySidecar(fi)
	s.writeParitySidecar(fi)
	s.parityMu.Lock()
	defer s.parityMu.Unlock()
	_, ok := s.paritySC[lfn]
	return ok
}
