package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"gdmp/internal/obs"
	"gdmp/internal/replica"
)

// FileState describes where a local file currently is.
type FileState string

const (
	// StateDisk means the file is in the disk pool, ready to serve.
	StateDisk FileState = "disk"

	// StateTape means the file was evicted to (or only exists in) the
	// Mass Storage System and needs staging before a transfer.
	StateTape FileState = "tape"
)

// FileInfo is one entry of a site's local file catalog.
type FileInfo struct {
	// LFN is the logical file name registered in the replica catalog.
	LFN string

	// Path is the site-relative path under the data directory; it is also
	// the path component of the site's PFN for this file.
	Path string

	// Size in bytes.
	Size int64

	// CRC32 is the IEEE CRC of the content, hex-encoded.
	CRC32 string

	// FileType names the replication plug-in ("flat", "objectivity", ...).
	FileType string

	// State records disk/tape residency.
	State FileState
}

// localCatalog is the site's own file table — the per-site catalog whose
// transfer to other sites provides GDMP's failure recovery ("obtaining a
// remote site's file catalog for failure recovery"). It is one of the
// durable tables of persistState: byLFN and its byPath index change only in
// persistState.apply (recPutFile, recRemoveFile, recSetState); waiters and
// landing are this life's bookkeeping about them; size is the
// gdmp_site_local_files gauge apply keeps at len(byLFN), replay included.
type localCatalog struct {
	mu      sync.RWMutex
	byLFN   map[string]FileInfo
	byPath  map[string]string        // site-relative path -> LFN
	waiters map[string]chan struct{} // lfn -> closed when the entry appears
	landing map[string]bool          // new entries not yet revealed
	size    *obs.Gauge
}

func newLocalCatalog(size *obs.Gauge) *localCatalog {
	size.Set(0)
	return &localCatalog{
		byLFN:   make(map[string]FileInfo),
		byPath:  make(map[string]string),
		waiters: make(map[string]chan struct{}),
		landing: make(map[string]bool),
		size:    size,
	}
}

// reveal ends an entry's landing and releases its waiters, if the entry is
// still there (an eviction may have withdrawn it mid-landing).
func (c *localCatalog) reveal(lfn string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.landing, lfn)
	if ch, ok := c.waiters[lfn]; ok && c.landed(lfn) {
		close(ch)
		delete(c.waiters, lfn)
	}
}

// landed reports whether the LFN is present and revealed; c.mu is held.
func (c *localCatalog) landed(lfn string) bool {
	_, ok := c.byLFN[lfn]
	return ok && !c.landing[lfn]
}

func (c *localCatalog) has(lfn string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.landed(lfn)
}

// await returns a channel that is closed once the LFN is present in the
// catalog and landed (immediately if it already is). All waiters for one
// LFN share a channel, so an LFN that never arrives costs one channel, not
// one per call.
func (c *localCatalog) await(lfn string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.landed(lfn) {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	ch, ok := c.waiters[lfn]
	if !ok {
		ch = make(chan struct{})
		c.waiters[lfn] = ch
	}
	return ch
}

func (c *localCatalog) get(lfn string) (FileInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	info, ok := c.byLFN[lfn]
	return info, ok
}

// getByPath resolves a site-relative path back to its catalog entry — the
// reverse lookup the disk-pool eviction callback needs, since the pool
// names files by path, not LFN.
func (c *localCatalog) getByPath(p string) (FileInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	lfn, ok := c.byPath[p]
	if !ok {
		return FileInfo{}, false
	}
	info, ok := c.byLFN[lfn]
	return info, ok
}

func (c *localCatalog) list() []FileInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]FileInfo, 0, len(c.byLFN))
	for _, info := range c.byLFN {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LFN < out[j].LFN })
	return out
}

func (c *localCatalog) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.byLFN)
}

// land makes verified on-disk bytes part of this site: local catalog
// entry (recPutFile, durable before anything is acknowledged), disk pool,
// and the pool's share of the parity sidecar that the caller's one read of
// the bytes already wrote (poolSidecar). The entry goes in before the pool
// sees the file —
// the pool may evict it at once, and onPoolEvict keeps the catalog
// consistent only for entries it can find — and is revealed to HasFile and
// WaitForFile last, so whoever is told the file is here finds it
// parity-protected. A file that cannot be made durable fails rather than
// acks: the entry never went in, so nobody is told it is here; the bytes
// stay (a publish's are the producer's original). A pulled replica
// hands in its pool reservation, released only here: holding it while the
// pool also counts the landed bytes would double-charge capacity and
// trigger spurious evictions. A nil reservation marks a producer original,
// pinned instead: cache pressure from pulled replicas must not push
// locally produced data out of the pool before it is archived. Every entry
// enters here; a tape-resident one has no disk bytes to pool or protect.
func (s *Site) land(fi FileInfo, reservation func()) error {
	if err := s.persist.putFile(fi); err != nil {
		return fmt.Errorf("core: journal %s: %w", fi.LFN, err)
	}
	defer s.local.reveal(fi.LFN)
	if s.storage != nil && fi.State == StateDisk {
		if reservation != nil {
			reservation()
		}
		if err := s.storage.AddToPool(fi.Path); err != nil {
			s.logger.Printf("gdmp[%s]: pool registration of %s: %v", s.cfg.Name, fi.Path, err)
		} else if reservation == nil {
			s.storage.Protect(fi.Path)
		}
	}
	s.poolSidecar(fi)
	return nil
}

// bytesFate is what a withdrawal does with the replica's bytes.
type bytesFate int

const (
	bytesKept        bytesFate = iota // already gone: evicted or vanished
	bytesUnlinked                     // deleted, and dropped from the pool's accounting
	bytesQuarantined                  // moved to <StateDir>/quarantine as evidence
)

// withdraw takes a replica out of this site, the one way one leaves: the
// bytes meet their fate; the parity sidecar goes with them (whatever
// survives would be parity for content the catalogs no longer promise);
// the local entry is removed (recRemoveFile); and only then, when
// central is set, this site's location is withdrawn from the replica
// catalog so no consumer is routed here — a crash in between leaves a
// dangling location for anti-entropy to heal. Start-up reconciliation
// passes central false: it runs before the servers listen, so there is no
// data address to build the PFN from. DeleteLogical does too: deleting the
// logical file removes every location at once. The first failure stops the
// withdrawal and is returned; the next scrub pass retries it.
func (s *Site) withdraw(ctx context.Context, fi FileInfo, fate bytesFate, central bool) error {
	localPath, err := s.resolveLocal(fi.Path)
	if err != nil {
		return err
	}
	switch fate {
	case bytesQuarantined:
		s.quarantine(localPath)
	case bytesUnlinked:
		if err := os.Remove(localPath); err != nil && !os.IsNotExist(err) {
			return err
		}
		if s.storage != nil {
			s.storage.Drop(fi.Path)
		}
	}
	s.dropParitySidecar(fi)
	if err := s.persist.removeFile(fi.LFN); err != nil {
		return fmt.Errorf("core: journal removal of %s: %w", fi.LFN, err)
	}
	if !central {
		return nil
	}
	if err := s.rc.RemoveReplica(ctx, fi.LFN, s.pfnFor(fi.Path).String()); err != nil && !errors.Is(err, replica.ErrNotFound) {
		return fmt.Errorf("core: withdraw %s from replica catalog: %w", fi.LFN, err)
	}
	return nil
}
