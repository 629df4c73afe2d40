package core

import (
	"fmt"
	"sort"
	"sync"
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
// remote site's file catalog for failure recovery").
type localCatalog struct {
	mu      sync.RWMutex
	byLFN   map[string]FileInfo
	byPath  map[string]string        // site-relative path -> LFN
	waiters map[string]chan struct{} // lfn -> closed when the entry appears
	landing map[string]bool          // entries put by putLanding, not yet revealed
}

func newLocalCatalog() *localCatalog {
	return &localCatalog{
		byLFN:   make(map[string]FileInfo),
		byPath:  make(map[string]string),
		waiters: make(map[string]chan struct{}),
		landing: make(map[string]bool),
	}
}

func (c *localCatalog) put(info FileInfo) {
	c.putLanding(info)
	c.reveal(info.LFN)
}

// putLanding is put for a file still landing (journal, pool, parity
// sidecar): the table knows a new entry at once — the pool's eviction
// callback must find it — but has and await report it only after reveal.
func (c *localCatalog) putLanding(info FileInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, had := c.byLFN[info.LFN]
	if had && old.Path != info.Path {
		delete(c.byPath, old.Path)
	}
	c.byLFN[info.LFN] = info
	c.byPath[info.Path] = info.LFN
	if !had {
		c.landing[info.LFN] = true
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

func (c *localCatalog) remove(lfn string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if info, ok := c.byLFN[lfn]; ok && c.byPath[info.Path] == lfn {
		delete(c.byPath, info.Path)
	}
	delete(c.byLFN, lfn)
	delete(c.landing, lfn)
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

func (c *localCatalog) setState(lfn string, st FileState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok := c.byLFN[lfn]
	if !ok {
		return fmt.Errorf("core: %q not in local catalog", lfn)
	}
	info.State = st
	c.byLFN[lfn] = info
	return nil
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
