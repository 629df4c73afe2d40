package core

// Erasure-coded local repair: the site-side half of internal/parity.
// Every published or landed replica gets a checksummed parity sidecar
// next to its bytes, journaled so recovery and quarantine agree with it
// across a crash. When scrub finds corruption, the damaged blocks are
// rebuilt locally from the surviving blocks plus parity — quarantine and
// the PR 5 WAN re-pull remain only for damage that exceeds the parity
// budget or for sidecars that are themselves unusable.

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

// writeParitySidecar generates, persists, and journals the parity sidecar
// for a freshly published or landed replica. The ordering is crash-safe:
// sidecar bytes first (atomic .part→rename), journal record second — a
// crash between the two leaves an unjournaled sidecar that recovery
// verifies and re-adopts, never a journaled promise without bytes.
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
	crcHex, err := parity.ProtectFile(localPath, pp.K, pp.M, fi.CRC32)
	if err != nil {
		s.logger.Printf("gdmp[%s]: parity: sidecar for %s: %v", s.cfg.Name, fi.LFN, err)
		return
	}
	scPath := parity.SidecarPath(localPath)
	// Sidecars are pool residents too: they count against capacity and are
	// attached to their data file, so they leave the pool with it and are
	// never eviction victims on their own.
	if s.storage != nil && s.storage.OnDisk(fi.Path) {
		rel := fi.Path + parity.Suffix
		if err := s.storage.AddToPool(rel); err != nil {
			s.logger.Printf("gdmp[%s]: parity: pool registration of %s: %v", s.cfg.Name, rel, err)
			os.Remove(scPath)
			return
		}
		s.storage.Attach(fi.Path, rel)
	}
	if err := s.persist.paritySet(fi.LFN, crcHex); err != nil {
		s.logger.Printf("gdmp[%s]: parity: journal sidecar for %s: %v", s.cfg.Name, fi.LFN, err)
	}
	s.scrubMet.ParitySidecars.Inc()
}

// dropParitySidecar forgets and deletes a replica's sidecar: registry
// entry, pool accounting, and bytes. Called whenever the
// data replica leaves the local catalog (withdrawal, eviction to tape) or
// the sidecar itself is found invalid — a sidecar must never outlive the
// replica it describes.
func (s *Site) dropParitySidecar(fi FileInfo) {
	if err := s.persist.parityDrop(fi.LFN); err != nil {
		s.logger.Printf("gdmp[%s]: parity: journal sidecar drop for %s: %v", s.cfg.Name, fi.LFN, err)
	}
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
// the file decodes and self-verifies, its whole-file CRC matches the
// journaled registry entry (when one exists), and its recorded data CRC
// matches the cataloged CRC of the file it claims to describe. Any
// disagreement drops the sidecar — scrub then takes the WAN fallback and
// regenerates parity once the data file is healthy again. A valid,
// matching sidecar with no journal entry (crash between rename and
// commit) is re-adopted.
func (s *Site) loadSidecar(fi FileInfo, localPath string) *parity.Sidecar {
	scPath := parity.SidecarPath(localPath)
	sc, gotCRC, err := parity.Load(scPath)
	tbl := &s.persist.st
	tbl.tabMu.Lock()
	wantCRC, journaled := tbl.parity[fi.LFN]
	tbl.tabMu.Unlock()
	if err != nil {
		if !os.IsNotExist(err) {
			s.logger.Printf("gdmp[%s]: parity: sidecar of %s unusable: %v", s.cfg.Name, fi.LFN, err)
			s.dropParitySidecar(fi)
		} else if journaled {
			// Journal promises a sidecar the disk lacks: forget the promise.
			s.dropParitySidecar(fi)
		}
		return nil
	}
	if journaled && gotCRC != wantCRC {
		s.logger.Printf("gdmp[%s]: parity: sidecar of %s is stale (crc %s, journal %s)",
			s.cfg.Name, fi.LFN, gotCRC, wantCRC)
		s.dropParitySidecar(fi)
		return nil
	}
	if fi.CRC32 != "" && fmt.Sprintf("%08x", sc.DataCRC) != fi.CRC32 {
		s.logger.Printf("gdmp[%s]: parity: sidecar of %s describes different content (crc %08x, catalog %s)",
			s.cfg.Name, fi.LFN, sc.DataCRC, fi.CRC32)
		s.dropParitySidecar(fi)
		return nil
	}
	if !journaled {
		if err := s.persist.paritySet(fi.LFN, gotCRC); err != nil {
			s.logger.Printf("gdmp[%s]: parity: journal recovered sidecar for %s: %v", s.cfg.Name, fi.LFN, err)
		}
	}
	return sc
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

// registeredSidecars lists the LFNs the sidecar registry holds.
func (s *Site) registeredSidecars() []string {
	tbl := &s.persist.st
	tbl.tabMu.Lock()
	defer tbl.tabMu.Unlock()
	lfns := make([]string, 0, len(tbl.parity))
	for lfn := range tbl.parity {
		lfns = append(lfns, lfn)
	}
	return lfns
}

// sweepOrphanSidecars removes parity sidecars whose data file is gone:
// registry entries for LFNs no longer in the local catalog, and on-disk
// sidecar files next to nothing. Runs with the quarantine retention
// sweep at the end of every scrub pass, so a sidecar never outlives its
// replica by more than one pass even when the deletion path that should
// have dropped it was interrupted.
func (s *Site) sweepOrphanSidecars() {
	for _, lfn := range s.registeredSidecars() {
		if _, ok := s.local.get(lfn); !ok {
			s.dropParitySidecar(FileInfo{LFN: lfn})
		}
	}
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

// recoverParity reconciles the replayed sidecar registry against the disk
// after restart recovery has settled the catalog: records for replicas
// that no longer exist are dropped, and loadSidecar drops every record
// whose sidecar file fails verification, file and all.
// Unjournaled-but-valid sidecars (crash between rename and commit) are
// left on disk for the next scrub pass to re-adopt, again via loadSidecar.
func (s *Site) recoverParity() {
	for _, lfn := range s.registeredSidecars() {
		fi, ok := s.local.get(lfn)
		if !ok {
			s.dropParitySidecar(FileInfo{LFN: lfn})
		} else if localPath, err := s.resolveLocal(fi.Path); err == nil {
			s.loadSidecar(fi, localPath)
		}
	}
}
