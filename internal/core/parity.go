package core

// Erasure-coded local repair: the site-side half of internal/parity.
// Every published or landed replica gets a checksummed parity sidecar
// next to its bytes; the sidecar proves itself (parity.Load checks every
// byte of it), so nothing but the file records it. When scrub finds
// corruption, the damaged blocks are rebuilt locally from the surviving
// blocks plus parity — quarantine and the scrubber's WAN re-pull remain
// only for damage that exceeds the parity budget or for sidecars that are
// themselves unusable.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"gdmp/internal/parity"
)

// parityParams returns the site's erasure-code geometry (zero = disabled).
func (s *Site) parityParams() parity.Params {
	return parity.Params{K: s.cfg.ParityK, M: s.cfg.ParityM}
}

// writeParitySidecar generates and persists the parity sidecar for a
// freshly published or landed replica (atomic .part→rename). The rename is
// not synced: after a power cut the sidecar may be missing, or an older one
// may stand in its place; loadSidecar refuses any that does not describe
// the cataloged content, and scrub regenerates it.
// Failures are logged, not fatal: a replica without a sidecar simply
// falls back to WAN repair, exactly as before this layer existed.
func (s *Site) writeParitySidecar(fi FileInfo) {
	pp := s.parityParams()
	if !pp.Enabled() || fi.Size <= 0 || fi.State != StateDisk {
		return
	}
	localPath, err := s.resolveLocal(fi.Path)
	if err != nil {
		return
	}
	// The encoder ends holding the CRC of the bytes it read: when they are
	// not the cataloged content it writes nothing, and the replica takes the
	// no-sidecar path until scrub has dealt with the rot.
	if err := parity.ProtectFile(localPath, pp.K, pp.M, fi.CRC32); err != nil {
		s.logger.Printf("gdmp[%s]: parity: sidecar for %s: %v", s.cfg.Name, fi.LFN, err)
		return
	}
	// Sidecars are pool residents too: they count against capacity and are
	// attached to their data file, so they leave the pool with it and are
	// never eviction victims on their own.
	if s.storage != nil && s.storage.OnDisk(fi.Path) {
		rel := fi.Path + parity.Suffix
		if err := s.storage.AddToPool(rel); err != nil {
			s.logger.Printf("gdmp[%s]: parity: pool registration of %s: %v", s.cfg.Name, rel, err)
			os.Remove(parity.SidecarPath(localPath))
			return
		}
		s.storage.Attach(fi.Path, rel)
	}
	s.scrubMet.ParitySidecars.Inc()
}

// dropParitySidecar deletes a replica's sidecar: pool accounting and
// bytes. Called whenever the data replica leaves the local catalog
// (withdrawal, eviction to tape) or the sidecar itself is found invalid —
// a sidecar must never outlive the replica it describes.
func (s *Site) dropParitySidecar(fi FileInfo) {
	if s.storage != nil {
		s.storage.Drop(fi.Path + parity.Suffix)
	}
	if localPath, err := s.resolveLocal(fi.Path); err == nil {
		if err := os.Remove(parity.SidecarPath(localPath)); err != nil && !os.IsNotExist(err) {
			s.logger.Printf("gdmp[%s]: parity: remove sidecar for %s: %v", s.cfg.Name, fi.LFN, err)
		}
	}
}

// loadSidecar returns fi's parity sidecar iff it is usable for repair:
// the file loads — its header and every parity block verify — and its
// recorded data CRC matches the cataloged CRC of the file it claims to
// describe. A sidecar that fails either check is dropped; scrub then takes
// the WAN fallback and regenerates parity once the data file is healthy
// again.
func (s *Site) loadSidecar(fi FileInfo, localPath string) *parity.Sidecar {
	sc, _, err := parity.Load(parity.SidecarPath(localPath))
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		s.logger.Printf("gdmp[%s]: parity: sidecar of %s unusable: %v", s.cfg.Name, fi.LFN, err)
	case fi.CRC32 != "" && fmt.Sprintf("%08x", sc.DataCRC) != fi.CRC32:
		s.logger.Printf("gdmp[%s]: parity: sidecar of %s describes different content (crc %08x, catalog %s)",
			s.cfg.Name, fi.LFN, sc.DataCRC, fi.CRC32)
	default:
		return sc
	}
	s.dropParitySidecar(fi)
	return nil
}

// parityRebuild reconstructs a corrupt replica in place from its sidecar,
// file to file. RebuildFile verifies the result before its atomic
// .part→rename, the staging suffix recovery already quarantines.
func (s *Site) parityRebuild(fi FileInfo, localPath string, sc *parity.Sidecar) error {
	rebuilt, err := sc.RebuildFile(localPath)
	if err != nil {
		return err
	}
	var repaired int64
	for _, b := range rebuilt {
		repaired += min(sc.BlockSize, sc.DataSize-int64(b)*sc.BlockSize)
	}
	s.scrubMet.ParityRebuilds.Inc()
	s.scrubMet.RepairBytesLocal.Add(repaired)
	s.logger.Printf("gdmp[%s]: parity: rebuilt %s in place (%d damaged blocks, %d bytes) from its sidecar",
		s.cfg.Name, fi.LFN, len(rebuilt), repaired)
	return nil
}

// sweepOrphanSidecars removes on-disk parity sidecars next to no data
// file. Runs with the quarantine retention sweep at the end of every scrub
// pass, so a sidecar never outlives its replica by more than one pass even
// when the deletion path that should have dropped it was interrupted.
func (s *Site) sweepOrphanSidecars() {
	err := filepath.WalkDir(s.cfg.DataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !parity.IsSidecar(d.Name()) {
			return err
		}
		dataPath := strings.TrimSuffix(path, parity.Suffix)
		if _, serr := os.Stat(dataPath); serr == nil {
			return nil
		}
		s.logger.Printf("gdmp[%s]: parity: sweeping orphaned sidecar %s", s.cfg.Name, path)
		if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
			s.logger.Printf("gdmp[%s]: parity: sweep %s: %v", s.cfg.Name, path, rerr)
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		s.logger.Printf("gdmp[%s]: parity: orphan sweep: %v", s.cfg.Name, err)
	}
}

// recoverParity checks the sidecar of every disk-resident replica of the
// recovered catalog once restart recovery has settled it: loadSidecar
// drops each one that fails verification, file and all. Sidecars next to
// no cataloged replica are left for the next scrub pass's orphan sweep.
func (s *Site) recoverParity() {
	if !s.parityParams().Enabled() {
		return
	}
	for _, fi := range s.local.list() {
		if fi.State != StateDisk {
			continue
		}
		if localPath, err := s.resolveLocal(fi.Path); err == nil {
			s.loadSidecar(fi, localPath)
		}
	}
}
