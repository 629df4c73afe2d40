package core

// Erasure-coded local repair: the site-side half of internal/parity.
// Every published or landed replica gets a checksummed parity sidecar
// next to its bytes, encoded by the landing's one read of them (protect);
// the sidecar proves itself (parity.Load checks every byte of it), so
// nothing but the file records it, and it is neither fsynced nor its
// rename made durable. When scrub finds corruption, the damaged blocks are
// rebuilt locally from the surviving blocks plus parity — quarantine and
// the scrubber's WAN re-pull remain only for damage that exceeds the parity
// budget or for sidecars that are themselves unusable.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"gdmp/internal/gridftp"
	"gdmp/internal/parity"
)

// parityParams returns the site's erasure-code geometry (zero = disabled).
func (s *Site) parityParams() parity.Params {
	return parity.Params{K: s.cfg.ParityK, M: s.cfg.ParityM}
}

// protect is the one read a landing makes of its bytes: with parity on and
// bytes to protect it encodes the parity sidecar of the size bytes at src
// as dataPath's, and otherwise it makes a plain CRC pass. It returns the
// content's CRC. When want (a hex CRC) is non-empty and the content does
// not hash to it, the error wraps gridftp.ErrChecksum and no sidecar is
// left: a sidecar must not enshrine rot. src is dataPath itself, or a
// download's staging file that is renamed to it once this check passes.
// A sidecar that cannot be written is logged and the CRC pass stands in:
// the replica falls back to WAN repair until scrub regenerates it.
func (s *Site) protect(src, dataPath string, size int64, want string) (uint32, error) {
	if pp := s.parityParams(); pp.Enabled() && size > 0 {
		crc, err := parity.ProtectFile(src, parity.SidecarPath(dataPath), pp.K, pp.M, want)
		if errors.Is(err, parity.ErrCRCMismatch) {
			return crc, fmt.Errorf("%w: %v", gridftp.ErrChecksum, err)
		}
		if err == nil {
			return crc, nil
		}
		s.logger.Printf("gdmp[%s]: parity: sidecar for %s: %v", s.cfg.Name, dataPath, err)
	}
	crc, err := gridftp.CRC32File(src)
	if got := fmt.Sprintf("%08x", crc); err == nil && want != "" && got != want {
		err = fmt.Errorf("%w: content has crc %s, expected %s", gridftp.ErrChecksum, got, want)
	}
	return crc, err
}

// protectable returns the local path of fi's bytes when they take a parity
// sidecar: parity is on, and fi is a non-empty disk-resident replica.
func (s *Site) protectable(fi FileInfo) (string, bool) {
	if !s.parityParams().Enabled() || fi.Size <= 0 || fi.State != StateDisk {
		return "", false
	}
	localPath, err := s.resolveLocal(fi.Path)
	return localPath, err == nil
}

// writeParitySidecar regenerates the parity sidecar of a landed replica
// from its bytes on disk, held to its cataloged CRC: protect writes nothing
// for bytes that do not match, and the replica takes the no-sidecar path
// until scrub has dealt with the rot. Failures are logged, not fatal: a
// replica without a sidecar simply falls back to WAN repair, exactly as
// before this layer existed. The caller pools what it wrote (land, or
// poolSidecar directly).
func (s *Site) writeParitySidecar(fi FileInfo) {
	localPath, ok := s.protectable(fi)
	if !ok {
		return
	}
	if _, err := s.protect(localPath, localPath, fi.Size, fi.CRC32); err != nil {
		s.logger.Printf("gdmp[%s]: parity: sidecar for %s: %v", s.cfg.Name, fi.LFN, err)
	}
}

// poolSidecar is land's parity step: the sidecar the landing's one read
// left next to the replica (protect, writeParitySidecar) joins the pool
// and is counted. Sidecars are pool residents too: they count against
// capacity and are attached to their data file, so they leave the pool
// with it and are never eviction victims on their own.
func (s *Site) poolSidecar(fi FileInfo) {
	localPath, ok := s.protectable(fi)
	if !ok {
		return
	}
	if _, err := os.Stat(parity.SidecarPath(localPath)); err != nil {
		return // none was written
	}
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
// file and no staged download of one. Runs with the quarantine retention
// sweep at the end of every scrub pass, so a sidecar never outlives its
// replica by more than one pass even when the deletion path that should
// have dropped it was interrupted.
func (s *Site) sweepOrphanSidecars() {
	err := filepath.WalkDir(s.cfg.DataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !parity.IsSidecar(d.Name()) {
			return err
		}
		// A pull's landing check writes the sidecar while the bytes are
		// still staged and renames them into place after it, so the staging
		// file is looked for first: a landing in flight keeps its sidecar.
		dataPath := strings.TrimSuffix(path, parity.Suffix)
		for _, p := range []string{dataPath + gridftp.PartSuffix, dataPath} {
			if _, serr := os.Stat(p); serr == nil {
				return nil
			}
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
