// Package mss simulates the Mass Storage System environment of Section 4.4:
// files live permanently on tape (HPSS in the paper) and move on demand to
// a disk pool that acts as "a data transfer cache for the Grid". GDMP
// triggers file staging explicitly, because the MSS is shared with other
// administrative domains and its internal cache cannot be managed by the
// Grid; the disk pool is the only storage the replication machinery touches
// directly.
//
// The package provides:
//
//   - a tape library with configurable mount latency and sequential drain
//     rate (so staging cost is realistic: seconds of mount plus size/rate);
//   - a disk pool with bounded capacity, pinning (files in active transfer
//     cannot be evicted), LRU or FIFO eviction for the ablation benches,
//     and explicit space reservation — the allocate_storage(datasize) API
//     the paper cites from [FRS00] as the natural extension point;
//   - the StorageManager interface, the package's HRM analogue: "a common
//     interface to be used to access different Mass Storage Systems".
//
// Physical bytes are kept on the local filesystem (tape directory and pool
// directory), so staged files are ordinary files a GridFTP server can
// serve, exactly as in the paper's deployment.
package mss

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gdmp/internal/durable"
	"gdmp/internal/obs"
)

// sleepCtx waits for d or until ctx is done, so the simulated tape-drive
// delays do not outlive a canceled stage request.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StorageManager is the HRM-style uniform interface GDMP plugs into.
type StorageManager interface {
	// Stage ensures the named file is on disk, staging from tape if
	// necessary, and returns its disk path with the file pinned. Callers
	// must Release the file when their transfer completes.
	Stage(name string) (string, error)

	// Release unpins a previously staged file.
	Release(name string)

	// OnDisk reports whether the file is currently in the disk pool.
	OnDisk(name string) bool

	// Archive copies a disk-pool file to tape for permanent storage.
	Archive(name string) error

	// Reserve sets aside capacity ahead of an incoming transfer and
	// returns a release function. It fails if the space cannot be freed.
	Reserve(size int64) (func(), error)
}

// EvictionPolicy selects which unpinned pool entry is evicted first.
type EvictionPolicy int

const (
	// LRU evicts the least recently used file (the default).
	LRU EvictionPolicy = iota
	// FIFO evicts the oldest-staged file regardless of use.
	FIFO
)

// Errors returned by the MSS.
var (
	ErrNotOnTape   = errors.New("mss: file not in tape library")
	ErrNoSpace     = errors.New("mss: disk pool full and nothing evictable")
	ErrNotStaged   = errors.New("mss: file not on disk")
	ErrBadCapacity = errors.New("mss: pool capacity must be positive")
)

// Config describes one site's storage hierarchy.
type Config struct {
	// TapeDir holds the permanent tape-resident copies.
	TapeDir string

	// PoolDir is the disk pool the Grid transfers from and to.
	PoolDir string

	// PoolCapacity is the pool size in bytes.
	PoolCapacity int64

	// MountLatency is charged once per stage operation (tape mount and
	// seek; minutes on real silos, milliseconds in tests).
	MountLatency time.Duration

	// TapeRateMBps is the sequential tape read rate; staging a file costs
	// size / rate in wall-clock time. Zero disables the charge.
	TapeRateMBps float64

	// Policy selects the eviction order.
	Policy EvictionPolicy
}

// Stats counts MSS activity.
type Stats struct {
	Hits        int   // stage requests satisfied from the pool
	Misses      int   // stage requests that went to tape
	Evictions   int   // files evicted from the pool
	BytesStaged int64 // bytes moved tape -> disk
	StageTime   time.Duration
}

// poolEntry tracks one disk-pool resident file.
type poolEntry struct {
	name       string
	size       int64
	pins       int
	protected  bool      // producer original: never evicted
	attachedTo string    // data entry this one rides with (parity sidecar)
	staged     time.Time // for FIFO
	lru        *list.Element
}

// MSS is the simulated hierarchical storage system at one site.
type MSS struct {
	cfg Config

	// copyMu runs one copy at a time: concurrent stages of one file would
	// share its staging name.
	copyMu sync.Mutex

	mu       sync.Mutex
	entries  map[string]*poolEntry
	lruList  *list.List // front = most recently used
	used     int64
	reserved int64
	stats    Stats
	onEvict  func(name string, size int64)
	met      *obs.PoolMetrics
}

// New creates an MSS over the configured directories, creating them if
// needed.
func New(cfg Config) (*MSS, error) {
	if cfg.PoolCapacity <= 0 {
		return nil, ErrBadCapacity
	}
	if cfg.TapeDir == "" || cfg.PoolDir == "" {
		return nil, errors.New("mss: TapeDir and PoolDir must be set")
	}
	for _, dir := range []string{cfg.TapeDir, cfg.PoolDir} {
		if err := durable.MkdirAll(dir); err != nil {
			return nil, fmt.Errorf("mss: create %s: %w", dir, err)
		}
	}
	return &MSS{
		cfg:     cfg,
		entries: make(map[string]*poolEntry),
		lruList: list.New(),
	}, nil
}

// safeJoin resolves a file name inside dir, rejecting escapes.
func safeJoin(dir, name string) (string, error) {
	clean := filepath.Clean("/" + filepath.ToSlash(name))
	if clean == "/" {
		return "", errors.New("mss: empty name")
	}
	return filepath.Join(dir, filepath.FromSlash(clean)), nil
}

// PutTape writes a file directly into the tape library (experiment setup:
// detector data is archived before the Grid sees it).
func (m *MSS) PutTape(name string, data []byte) error {
	p, err := safeJoin(m.cfg.TapeDir, name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

// TapeSize returns the size of a tape-resident file.
func (m *MSS) TapeSize(name string) (int64, error) {
	p, err := safeJoin(m.cfg.TapeDir, name)
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(p)
	if err != nil {
		return 0, ErrNotOnTape
	}
	return info.Size(), nil
}

// SetOnEvict installs a callback invoked once per evicted file, after the
// pool lock is released, with the pool-relative name and size of the
// victim. The replication core uses it to retire the evicted replica's
// catalog entries; the bytes are already gone when it runs, and the
// callback may call back into the pool.
func (m *MSS) SetOnEvict(fn func(name string, size int64)) {
	m.mu.Lock()
	m.onEvict = fn
	m.mu.Unlock()
}

// SetMetrics points the pool at a gdmp_pool_* metric family and primes
// the capacity and occupancy gauges.
func (m *MSS) SetMetrics(pm *obs.PoolMetrics) {
	m.mu.Lock()
	m.met = pm
	if pm != nil {
		pm.Capacity.Set(m.cfg.PoolCapacity)
	}
	m.gaugesLocked()
	m.mu.Unlock()
}

// Capacity returns the configured pool size in bytes.
func (m *MSS) Capacity() int64 { return m.cfg.PoolCapacity }

// Protect marks a pool entry as never evictable, regardless of pins — the
// treatment producer originals get, so cache pressure from pulled
// replicas cannot push locally produced data out of the pool.
func (m *MSS) Protect(name string) {
	m.mu.Lock()
	if e, ok := m.entries[name]; ok {
		e.protected = true
	}
	m.mu.Unlock()
}

// Attach binds an auxiliary pool file (a parity sidecar) to the data file
// it describes. The attachment still counts against pool capacity, but it
// is never chosen as an eviction victim on its own, and when its data
// file leaves the pool — evicted or dropped — the attachment's bytes and
// accounting go with it. Unknown names are ignored.
func (m *MSS) Attach(dataName, attachName string) {
	m.mu.Lock()
	if e, ok := m.entries[attachName]; ok {
		e.attachedTo = dataName
	}
	m.mu.Unlock()
}

// gaugesLocked refreshes the occupancy gauges; the caller holds m.mu.
func (m *MSS) gaugesLocked() {
	if m.met == nil {
		return
	}
	m.met.Occupancy.Set(m.used)
	m.met.Reserved.Set(m.reserved)
}

// NoteAccess records a pool-cache access the MSS did not itself mediate:
// hit reports whether the requested replica was already pool-resident,
// and a miss carries the latency of the fetch that brought the bytes in
// (the WAN pull). The replication core calls this on its Get path so the
// pool hit-rate covers remote pulls as well as tape stages.
func (m *MSS) NoteAccess(hit bool, d time.Duration) {
	m.mu.Lock()
	met := m.met
	if hit {
		m.stats.Hits++
	} else {
		m.stats.Misses++
		m.stats.StageTime += d
	}
	m.mu.Unlock()
	if met != nil {
		if hit {
			met.Hits.Inc()
		} else {
			met.Misses.Inc()
			met.StageSeconds.Observe(d.Seconds())
		}
	}
}

// Touch marks a pool-resident file as recently used without pinning it —
// the recency signal for accesses the MSS does not itself mediate (a Get
// satisfied by a resident replica). Without it every such hit is
// invisible to LRU and the policy degenerates to FIFO.
func (m *MSS) Touch(name string) {
	m.mu.Lock()
	if e, ok := m.entries[name]; ok {
		m.touchLocked(e)
	}
	m.mu.Unlock()
}

// OnDisk reports whether the file is in the pool.
func (m *MSS) OnDisk(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[name]
	return ok
}

// DiskPath returns the pool path of a staged file without pinning it.
func (m *MSS) DiskPath(name string) (string, error) {
	m.mu.Lock()
	_, ok := m.entries[name]
	m.mu.Unlock()
	if !ok {
		return "", ErrNotStaged
	}
	return safeJoin(m.cfg.PoolDir, name)
}

// Stage ensures the file is on disk and pins it. By default a file is
// "first looked for on its disk location and if it is not there, it is
// assumed to be available in the Mass Storage System" and staged.
func (m *MSS) Stage(name string) (string, error) {
	return m.StageContext(context.Background(), name)
}

// StageContext is Stage bounded by a context: cancellation interrupts the
// simulated mount and tape-drain waits instead of sleeping them out.
func (m *MSS) StageContext(ctx context.Context, name string) (string, error) {
	m.mu.Lock()
	if e, ok := m.entries[name]; ok {
		// Verify the pool copy really is on disk: metadata can drift if
		// the file was removed behind the pool's back (disk failure,
		// operator cleanup). A vanished file is re-staged from tape.
		p, err := safeJoin(m.cfg.PoolDir, name)
		if err != nil {
			m.mu.Unlock()
			return "", err
		}
		if _, err := os.Stat(p); err == nil {
			e.pins++
			m.touchLocked(e)
			m.stats.Hits++
			if m.met != nil {
				m.met.Hits.Inc()
			}
			m.mu.Unlock()
			return p, nil
		}
		m.lruList.Remove(e.lru)
		delete(m.entries, name)
		m.used -= e.size
	}
	m.stats.Misses++
	if m.met != nil {
		m.met.Misses.Inc()
	}
	m.gaugesLocked()
	m.mu.Unlock()

	size, err := m.TapeSize(name)
	if err != nil {
		return "", err
	}

	// Make room before the slow tape read, holding the reservation so a
	// concurrent stage cannot oversubscribe the pool.
	release, err := m.Reserve(size)
	if err != nil {
		return "", err
	}

	start := time.Now()
	if err := sleepCtx(ctx, m.cfg.MountLatency); err != nil {
		release()
		return "", fmt.Errorf("mss: stage %s: %w", name, err)
	}
	if m.cfg.TapeRateMBps > 0 {
		drain := time.Duration(float64(size) / (m.cfg.TapeRateMBps * 1e6) * float64(time.Second))
		if err := sleepCtx(ctx, drain); err != nil {
			release()
			return "", fmt.Errorf("mss: stage %s: %w", name, err)
		}
	}
	src, err := safeJoin(m.cfg.TapeDir, name)
	if err != nil {
		release()
		return "", err
	}
	dst, err := safeJoin(m.cfg.PoolDir, name)
	if err != nil {
		release()
		return "", err
	}
	if err := m.copyFile(src, dst); err != nil {
		release()
		return "", fmt.Errorf("mss: stage %s: %w", name, err)
	}

	elapsed := time.Since(start)
	m.mu.Lock()
	met := m.met
	if e, ok := m.entries[name]; ok {
		// A concurrent stage of the same file won the race and owns the
		// pool entry; counting our copy too would double the usage
		// accounting and orphan a recency-list element. Fold into the
		// existing entry: drop our reservation, take our pin on theirs.
		m.reserved -= size
		e.pins++
		m.touchLocked(e)
		m.stats.BytesStaged += size
		m.stats.StageTime += elapsed
		m.gaugesLocked()
		m.mu.Unlock()
		if met != nil {
			met.StageSeconds.Observe(elapsed.Seconds())
		}
		return dst, nil
	}
	// Convert the reservation into real usage; the release closure is
	// deliberately never called on this path.
	m.reserved -= size
	m.used += size
	e := &poolEntry{name: name, size: size, pins: 1, staged: time.Now()}
	e.lru = m.lruList.PushFront(e)
	m.entries[name] = e
	m.stats.BytesStaged += size
	m.stats.StageTime += elapsed
	m.gaugesLocked()
	m.mu.Unlock()
	if met != nil {
		met.StageSeconds.Observe(elapsed.Seconds())
	}
	return dst, nil
}

// Release unpins a staged file, making it evictable again.
func (m *MSS) Release(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[name]; ok && e.pins > 0 {
		e.pins--
	}
}

// AddToPool registers a file written directly into the pool (e.g. a replica
// that just arrived over the WAN). The file must already exist at the pool
// path; the entry starts unpinned.
func (m *MSS) AddToPool(name string) error {
	p, err := safeJoin(m.cfg.PoolDir, name)
	if err != nil {
		return err
	}
	info, err := os.Stat(p)
	if err != nil {
		return fmt.Errorf("mss: add to pool: %w", err)
	}
	m.mu.Lock()
	if _, ok := m.entries[name]; ok {
		m.mu.Unlock()
		return nil
	}
	victims, verr := m.evictLocked(info.Size())
	if verr != nil {
		m.gaugesLocked()
		m.mu.Unlock()
		m.notifyEvicted(victims)
		return verr
	}
	e := &poolEntry{name: name, size: info.Size(), staged: time.Now()}
	e.lru = m.lruList.PushFront(e)
	m.entries[name] = e
	m.used += info.Size()
	m.gaugesLocked()
	m.mu.Unlock()
	m.notifyEvicted(victims)
	return nil
}

// Archive copies a pool file to tape (permanent storage for newly produced
// data).
func (m *MSS) Archive(name string) error {
	src, err := m.DiskPath(name)
	if err != nil {
		return err
	}
	dst, err := safeJoin(m.cfg.TapeDir, name)
	if err != nil {
		return err
	}
	if m.cfg.MountLatency > 0 {
		time.Sleep(m.cfg.MountLatency)
	}
	return m.copyFile(src, dst)
}

// Reserve sets aside size bytes of pool capacity, evicting unpinned files
// if needed, and returns a function releasing the reservation. This is the
// allocate_storage(datasize) API of Section 4.4.
func (m *MSS) Reserve(size int64) (func(), error) {
	if size < 0 {
		return nil, errors.New("mss: negative reservation")
	}
	m.mu.Lock()
	victims, err := m.evictLocked(size)
	if err != nil {
		m.gaugesLocked()
		m.mu.Unlock()
		// Victims evicted before the failure are really gone; their
		// catalog entries must still be retired.
		m.notifyEvicted(victims)
		return nil, err
	}
	m.reserved += size
	m.gaugesLocked()
	m.mu.Unlock()
	m.notifyEvicted(victims)
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			m.reserved -= size
			m.gaugesLocked()
			m.mu.Unlock()
		})
	}, nil
}

// evicted records one eviction for the post-unlock callback.
type evicted struct {
	name string
	size int64
}

// evictLocked frees space until size fits, or fails after evicting
// whatever it could. The victims' bytes are removed here; the caller must
// pass the returned list to notifyEvicted after releasing m.mu, because
// the callback re-enters the replication core, which may call back into
// the pool.
func (m *MSS) evictLocked(size int64) ([]evicted, error) {
	var out []evicted
	for m.used+m.reserved+size > m.cfg.PoolCapacity {
		victim := m.pickVictimLocked()
		if victim == nil {
			return out, fmt.Errorf("%w: need %d, used %d, reserved %d, capacity %d",
				ErrNoSpace, size, m.used, m.reserved, m.cfg.PoolCapacity)
		}
		p, err := safeJoin(m.cfg.PoolDir, victim.name)
		if err == nil {
			os.Remove(p)
		}
		m.lruList.Remove(victim.lru)
		delete(m.entries, victim.name)
		m.used -= victim.size
		m.stats.Evictions++
		if m.met != nil {
			m.met.Evictions.Inc()
		}
		out = append(out, evicted{victim.name, victim.size})
		out = append(out, m.detachLocked(victim.name)...)
	}
	return out, nil
}

// detachLocked removes every entry attached to dataName — the cascade
// half of Attach. Attachment removals free capacity and are reported to
// the eviction callback, but are not counted as cache evictions: they
// are bookkeeping for their data file's departure, not victims.
func (m *MSS) detachLocked(dataName string) []evicted {
	var out []evicted
	for name, e := range m.entries {
		if e.attachedTo != dataName {
			continue
		}
		if p, err := safeJoin(m.cfg.PoolDir, name); err == nil {
			os.Remove(p)
		}
		m.lruList.Remove(e.lru)
		delete(m.entries, name)
		m.used -= e.size
		out = append(out, evicted{name, e.size})
	}
	return out
}

// notifyEvicted runs the eviction callback for each victim, outside m.mu,
// once the victim's removal is durable: the callback journals it, and a
// journaled removal must not outlive a power cut that brings the bytes
// back unaccounted. A failed directory fsync cannot undo the removal, so
// the callback runs regardless; the cost is bytes a power cut may leave
// behind, never a catalog entry without them.
func (m *MSS) notifyEvicted(victims []evicted) {
	if len(victims) == 0 {
		return
	}
	m.mu.Lock()
	fn := m.onEvict
	m.mu.Unlock()
	if fn == nil {
		return
	}
	for _, v := range victims {
		if p, err := safeJoin(m.cfg.PoolDir, v.name); err == nil {
			_ = durable.SyncDir(filepath.Dir(p))
		}
		fn(v.name, v.size)
	}
}

// pickVictimLocked selects the next unpinned victim per policy.
func (m *MSS) pickVictimLocked() *poolEntry {
	switch m.cfg.Policy {
	case FIFO:
		var oldest *poolEntry
		for _, e := range m.entries {
			if e.pins > 0 || e.protected || e.attachedTo != "" {
				continue
			}
			if oldest == nil || e.staged.Before(oldest.staged) {
				oldest = e
			}
		}
		return oldest
	default: // LRU: scan from the back of the recency list
		for el := m.lruList.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*poolEntry)
			if e.pins == 0 && !e.protected && e.attachedTo == "" {
				return e
			}
		}
		return nil
	}
}

// touchLocked marks an entry as recently used.
func (m *MSS) touchLocked(e *poolEntry) {
	m.lruList.MoveToFront(e.lru)
}

// Drop removes a file from the pool's accounting without touching tape.
// Used when a replica is deliberately deleted from the pool (e.g. an
// object-extraction file removed after its transfer). Attachments bound
// to the dropped file go with it.
func (m *MSS) Drop(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[name]
	if !ok {
		return
	}
	if p, err := safeJoin(m.cfg.PoolDir, name); err == nil {
		os.Remove(p)
	}
	m.lruList.Remove(e.lru)
	delete(m.entries, name)
	m.used -= e.size
	m.detachLocked(name)
	m.gaugesLocked()
}

// Used returns the bytes currently occupied in the pool.
func (m *MSS) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Free returns the unreserved free capacity.
func (m *MSS) Free() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.PoolCapacity - m.used - m.reserved
}

// Stats returns a copy of the activity counters.
func (m *MSS) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// PoolContents lists the staged files, sorted.
func (m *MSS) PoolContents() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.entries))
	for n := range m.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// copyFile copies src to dst durably, dst's directory created if need be:
// pool eviction may leave a tape copy as a file's only copy, and a staged
// copy is served as the file.
func (m *MSS) copyFile(src, dst string) error {
	m.copyMu.Lock()
	defer m.copyMu.Unlock()
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	dir := filepath.Dir(dst)
	if err := durable.MkdirAll(dir); err != nil {
		return err
	}
	err = durable.WriteAtomic(dst, func(out *os.File) error {
		_, err := io.Copy(out, in)
		return err
	})
	if err != nil {
		return err
	}
	return durable.SyncDir(dir)
}

var _ StorageManager = (*MSS)(nil)
