package core

import (
	"fmt"
	"os"
	"strconv"
)

// PublishAll publishes a set of locally produced files and notifies every
// subscriber once, with the whole batch in a single message — the paper's
// "each data production site publishes a set of newly created files to a
// set of one or more consumer sites". All files share the same options
// (collection and file type); per-file LFNs are derived from their paths.
//
// Registration is per file; a failure aborts the batch after the files
// already registered (their notifications are included so consumers stay
// consistent).
func (s *Site) PublishAll(relPaths []string, opts PublishOptions) ([]PublishedFile, error) {
	if opts.LFN != "" {
		return nil, fmt.Errorf("core: PublishAll derives LFNs from paths; the LFN option is not allowed")
	}
	published := make([]PublishedFile, 0, len(relPaths))
	infos := make([]FileInfo, 0, len(relPaths))
	var firstErr error
	for _, rel := range relPaths {
		pf, err := s.publishCore(rel, opts, false)
		if err != nil {
			firstErr = fmt.Errorf("core: publish %s: %w", rel, err)
			break
		}
		published = append(published, pf)
		if fi, ok := s.local.get(pf.LFN); ok {
			infos = append(infos, fi)
		}
	}
	if len(infos) > 0 {
		if err := s.notifySubscribers(infos); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return published, firstErr
}

// RebuildLocalCatalog reconstructs the site's local file catalog from the
// central replica catalog after a restart: every logical file the catalog
// attributes to this site and whose bytes are present (on disk, or behind
// the MSS) is re-adopted. It returns how many entries were restored.
//
// Together with RemoteCatalog/Recover this completes GDMP's failure
// recovery story: a crashed site loses no published state, because the
// replica catalog is the durable record.
func (s *Site) RebuildLocalCatalog() (int, error) {
	entries, err := s.rc.query(s.ctx, "("+attrSite+"="+s.cfg.Name+")")
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, entry := range entries {
		if s.HasFile(entry.Name) {
			continue
		}
		rel := entry.Attrs[attrPath]
		if rel == "" {
			continue
		}
		localPath, err := s.resolveLocal(rel)
		if err != nil {
			continue
		}
		state := StateDisk
		if _, err := os.Stat(localPath); err != nil {
			// Not on disk: only adoptable when the MSS holds it on tape.
			if s.storage == nil {
				continue
			}
			if _, err := s.storage.TapeSize(rel); err != nil {
				continue
			}
			state = StateTape
		}
		size, _ := strconv.ParseInt(entry.Attrs["size"], 10, 64)
		fi := FileInfo{
			LFN:      entry.Name,
			Path:     rel,
			Size:     size,
			CRC32:    entry.Attrs["crc32"],
			FileType: entry.Attrs["filetype"],
			State:    state,
		}
		if err := s.persist.putFile(fi); err != nil {
			return restored, fmt.Errorf("core: journal %s: %w", fi.LFN, err)
		}
		s.local.reveal(fi.LFN)
		restored++
	}
	return restored, nil
}
