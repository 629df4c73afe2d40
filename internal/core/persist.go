package core

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gdmp/internal/durable"
	"gdmp/internal/gridftp"
	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

// RecoveryMetricsPrefix prefixes the restart-recovery metrics.
const RecoveryMetricsPrefix = "gdmp_recovery"

// Journal record tags. Every mutation of durable site state — the local
// file catalog, the subscriber registry with its undelivered notification
// queues, the set of notified-but-unfinished pulls, the producer set and the
// scrub cursor — is one tagged record,
// appended to the journal and then applied to the site's tables, and
// re-applied in order at replay. Records are deltas, so their per-key
// ordering matters; the journal's per-generation WAL guarantees a record
// is only ever replayed against the snapshot it was appended after, never
// double-applied. The tags are fixed on disk: a retired one keeps its
// number, and apply still decodes and ignores it, so an older build's
// journal replays here.
const (
	recPutFile uint8 = iota + 1
	recRemoveFile
	recSetState
	recSubscribe
	recUnsubscribe
	recNotifyQueue
	recNotifyAck
	recNotifyDrop
	recPullQueued
	recPullDone // no writer: recPutFile retires the intent; apply honours it
	recProducerAdd
	recProducerRemove
	recScrubCursor
	// Retired: an older build's parity-sidecar registry (set: lfn, sidecar
	// CRC; drop: lfn). A sidecar now proves itself (parity.Load).
	recParitySet
	recParityDrop
)

// compactThreshold is how many WAL records accumulate before the journal
// is folded into a snapshot.
const compactThreshold = 1024

// subscriberState is one subscriber's delivery record: address, suspicion
// and the undelivered notices are durable; failures and draining are the
// drain goroutine's bookkeeping. All fields are guarded by
// persistState.subMu.
type subscriberState struct {
	name     string
	addr     string
	queue    []FileInfo // notices not yet acknowledged
	suspect  bool       // past the failure threshold; skipped until re-subscribe
	failures int        // consecutive delivery failures
	draining bool       // a drain goroutine is running
}

// persistState is the site's durable tables — exactly the state a restart
// must reconstruct — and the journal's state machine: records are
// transitions on it, and a snapshot is the records that rebuild it. Each
// table exists once. It is read under its table lock and written by apply
// alone, which runs under the journal lock (sitePersistence.mu) and takes
// the table lock inside it. So the lock order is journal lock outermost,
// table lock innermost; nothing appends (fsyncs) while it holds a table
// lock, no read path takes the journal lock, and whoever holds the journal
// lock may read the durable fields without a table lock (the predicates,
// records). One record changes two tables: recPutFile retires the LFN's
// pull, taking tabMu inside localCatalog.mu, so that is their order.
type persistState struct {
	// files is the local file catalog, under its own lock.
	files *localCatalog

	subMu sync.Mutex
	subs  map[string]*subscriberState // site name -> delivery state

	// tabMu guards the three small tables below.
	tabMu sync.Mutex

	pulls map[string]FileInfo // notified or admitted, not yet cataloged

	// producers are the ctl addresses of sites this site has subscribed
	// to. Anti-entropy exchanges digests with them after a restart, so the
	// set is durable.
	producers map[string]bool

	// scrubCursor is the last LFN the local scrubber verified in its
	// current pass ("" = no pass in progress), letting a restart resume
	// mid-scan instead of re-reading the files it already verified.
	scrubCursor string
}

// sitePersistence couples the site's tables with the journal that makes
// them durable. All methods are safe for concurrent use. A site without a
// StateDir has no journal (j is nil): the same transitions run on the
// same tables, with the append skipped.
type sitePersistence struct {
	mu     sync.Mutex // the journal lock: check → append → apply → compact
	j      *journal.Journal
	st     persistState
	closed bool
	logger *log.Logger
}

// openPersistence builds the site's tables: empty without a stateDir,
// else replayed from the journal it opens there. tornBytes reports WAL
// bytes quarantined at open.
func openPersistence(stateDir string, reg *obs.Registry, logger *log.Logger) (p *sitePersistence, tornBytes int64, err error) {
	p = &sitePersistence{logger: logger, st: persistState{
		files: newLocalCatalog(reg.Gauge(SiteMetricsPrefix+"_local_files",
			"Entries in the site's local file catalog.")),
		subs:      make(map[string]*subscriberState),
		pulls:     make(map[string]FileInfo),
		producers: make(map[string]bool),
	}}
	if stateDir == "" {
		return p, 0, nil
	}
	j, rec, err := journal.Open(filepath.Join(stateDir, "journal"), journal.Options{Registry: reg, Replay: func(r []byte) error {
		// The record passed its frame's checksum, so a decode failure is a
		// version skew or a bug, not disk corruption; surface it.
		if err := p.st.apply(r); err != nil {
			return fmt.Errorf("core: replay journal record: %w", err)
		}
		return nil
	}})
	if err != nil {
		return nil, 0, fmt.Errorf("core: open journal: %w", err)
	}
	// Replayed entries finished landing in an earlier life.
	clear(p.st.files.landing)
	p.j = j
	return p, rec.TornBytes, nil
}

// errPersistClosed refuses a table change after the site's persistence
// closed: nothing was written or applied.
var errPersistClosed = errors.New("core: site closed: change not recorded")

// record is the one way a table changes: rec writes the record — its tag,
// then its fields — which is appended and then applied, compacting when the
// WAL has grown past the threshold. alreadySo, when set, makes the hook
// idempotent: it runs against the tables under the same lock hold as the
// append, so a record they already reflect is not written twice and no
// concurrent record can slip in between the check and the commit. record
// returns only after the record is fsync'd, so callers may acknowledge the
// mutation the moment it returns nil — and must refuse to acknowledge when
// it errors: an append failure (disk full, I/O fault) latches the journal
// failed, the tables stay as they were, and the error surfaces so the
// mutating operation fails instead of silently losing durability. Once
// the persistence is closed (Close, or Kill severing the journal while
// handlers still run) every change is refused the same way.
func (p *sitePersistence) record(alreadySo func(*persistState) bool, rec recWriter) error {
	var e rpc.Encoder
	rec(&e)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errPersistClosed
	}
	if alreadySo != nil && alreadySo(&p.st) {
		return nil
	}
	if p.j != nil {
		if err := p.j.Append(e.Bytes()); err != nil {
			return err
		}
	}
	if err := p.st.apply(e.Bytes()); err != nil {
		// The record is our own encoding, already durable; a rejection is
		// a bug, not an I/O condition.
		p.logger.Printf("gdmp: journal record rejected by its own transition: %v", err)
	}
	if p.j != nil && p.j.Records() >= compactThreshold {
		if err := p.j.Compact(p.st.records); err != nil {
			p.logger.Printf("gdmp: journal compaction failed: %v", err)
		}
	}
	return nil
}

// close freezes the tables and shuts the journal down. A graceful close
// folds the final state into a snapshot first; an abrupt close (Kill)
// writes nothing more, so only already-fsync'd records survive — exactly
// a crash's disk image.
func (p *sitePersistence) close(graceful bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.j == nil {
		return
	}
	if graceful {
		if err := p.j.Compact(p.st.records); err != nil {
			p.logger.Printf("gdmp: final journal compaction failed: %v", err)
		}
	}
	p.j.Close()
}

// --- the transitions a site may request: one hook per record tag ------------

func (p *sitePersistence) putFile(fi FileInfo) error {
	return p.record(nil, putFileRecord(fi))
}

func (p *sitePersistence) removeFile(lfn string) error {
	return p.record(nil, stringsRecord(recRemoveFile, lfn))
}

// setState records a residency change; none for an absent entry or an
// unchanged state, such as the stage every served pull asks for.
func (p *sitePersistence) setState(lfn string, state FileState) error {
	return p.record(func(st *persistState) bool {
		fi, ok := st.files.byLFN[lfn]
		return !ok || fi.State == state
	}, stringsRecord(recSetState, lfn, string(state)))
}

func (p *sitePersistence) subscribe(name, addr string) error {
	return p.record(nil, subscribeRecord(name, addr))
}

func (p *sitePersistence) unsubscribe(name string) error {
	return p.record(nil, stringsRecord(recUnsubscribe, name))
}

func (p *sitePersistence) notifyQueue(name string, files []FileInfo) error {
	return p.record(nil, notifyQueueRecord(name, files))
}

// replaced reports whether sub is no longer the subscriber registered
// under its name: it unsubscribed, or did and subscribed again. The two
// hooks of a drain goroutine carry it as their predicate, because the
// record names the queue by subscriber name and that queue is now someone
// else's undelivered notices.
func replaced(sub *subscriberState) func(*persistState) bool {
	return func(st *persistState) bool { return st.subs[sub.name] != sub }
}

func (p *sitePersistence) notifyAck(sub *subscriberState, n int) error {
	return p.record(replaced(sub), func(e *rpc.Encoder) {
		e.Uint8(recNotifyAck)
		e.String(sub.name)
		e.Uint32(uint32(n))
	})
}

func (p *sitePersistence) notifyDrop(sub *subscriberState) error {
	return p.record(replaced(sub), notifyDropRecord(sub.name))
}

// pullQueued records an unfinished pull, none for a cataloged LFN. It is
// idempotent by LFN and never downgrades: a record that already carries the
// file's path is not replaced by a bare-LFN admission for the same file.
func (p *sitePersistence) pullQueued(fi FileInfo) error {
	return p.record(func(st *persistState) bool {
		_, here := st.files.byLFN[fi.LFN]
		existing, ok := st.pulls[fi.LFN]
		return here || ok && (existing.Path != "" || fi.Path == "")
	}, pullQueuedRecord(fi))
}

// producerAdd records that this site subscribed to a producer at addr.
func (p *sitePersistence) producerAdd(addr string) error {
	return p.record(func(st *persistState) bool { return st.producers[addr] }, producerAddRecord(addr))
}

// producerRemove records an unsubscription from the producer at addr.
func (p *sitePersistence) producerRemove(addr string) error {
	return p.record(func(st *persistState) bool { return !st.producers[addr] },
		stringsRecord(recProducerRemove, addr))
}

// scrubCursor journals scrub-pass progress: lfn is the last catalog entry
// verified ("" marks the pass complete). Best-effort durability is wrong
// here in the other direction than acks: losing the cursor only costs
// re-verification, but the caller still surfaces the error so a latched
// journal is noticed.
func (p *sitePersistence) scrubCursor(lfn string) error {
	return p.record(func(st *persistState) bool { return st.scrubCursor == lfn }, scrubCursorRecord(lfn))
}

// --- the records: the snapshot's seven tags have one encoder each, shared
// by the hooks above and records below --------------------------------------

// A recWriter writes one record: its tag, then its fields.
type recWriter func(*rpc.Encoder)

// stringsRecord writes a record whose fields are strings, as most are.
func stringsRecord(tag uint8, fields ...string) recWriter {
	return func(e *rpc.Encoder) {
		e.Uint8(tag)
		for _, f := range fields {
			e.String(f)
		}
	}
}

// fileRecord writes a record whose one field is a file's entry.
func fileRecord(tag uint8, fi FileInfo) recWriter {
	return func(e *rpc.Encoder) {
		e.Uint8(tag)
		encodeFileInfo(e, fi)
	}
}

func notifyQueueRecord(name string, files []FileInfo) recWriter {
	return func(e *rpc.Encoder) {
		e.Uint8(recNotifyQueue)
		e.String(name)
		encodeFileInfos(e, files)
	}
}

func putFileRecord(fi FileInfo) recWriter         { return fileRecord(recPutFile, fi) }
func subscribeRecord(name, addr string) recWriter { return stringsRecord(recSubscribe, name, addr) }
func notifyDropRecord(name string) recWriter      { return stringsRecord(recNotifyDrop, name) }
func pullQueuedRecord(fi FileInfo) recWriter      { return fileRecord(recPullQueued, fi) }
func producerAddRecord(addr string) recWriter     { return stringsRecord(recProducerAdd, addr) }
func scrubCursorRecord(lfn string) recWriter      { return stringsRecord(recScrubCursor, lfn) }

// records pushes the run of records that rebuilds the tables from empty —
// the journal's snapshot — each table in sorted key order, so equal tables
// make equal snapshot bytes. A subscriber is its subscribe record, then a
// drop if it is suspect, then its undelivered notices. The caller holds
// the journal lock; one buffer is reused from record to record.
func (st *persistState) records(yield func([]byte) bool) {
	var e rpc.Encoder
	more := true
	emit := func(rec recWriter) {
		e.Reset()
		rec(&e)
		more = more && yield(e.Bytes())
	}
	for _, lfn := range sortedKeys(st.files.byLFN) {
		emit(putFileRecord(st.files.byLFN[lfn]))
	}
	for _, name := range sortedKeys(st.subs) {
		sub := st.subs[name]
		emit(subscribeRecord(name, sub.addr))
		if sub.suspect {
			emit(notifyDropRecord(name))
		}
		if len(sub.queue) > 0 {
			emit(notifyQueueRecord(name, sub.queue))
		}
	}
	for _, lfn := range sortedKeys(st.pulls) {
		emit(pullQueuedRecord(st.pulls[lfn]))
	}
	for _, addr := range sortedKeys(st.producers) {
		emit(producerAddRecord(addr))
	}
	if st.scrubCursor != "" {
		emit(scrubCursorRecord(st.scrubCursor))
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// incompletePulls lists the unfinished pulls in LFN order.
func (st *persistState) incompletePulls() []FileInfo {
	st.tabMu.Lock()
	defer st.tabMu.Unlock()
	out := make([]FileInfo, 0, len(st.pulls))
	for _, lfn := range sortedKeys(st.pulls) {
		out = append(out, st.pulls[lfn])
	}
	return out
}

// --- the transition function -------------------------------------------------

func encodeFileInfo(e *rpc.Encoder, fi FileInfo) {
	e.String(fi.LFN)
	e.String(fi.Path)
	e.Int64(fi.Size)
	e.String(fi.CRC32)
	e.String(fi.FileType)
	e.String(string(fi.State))
}

func decodeFileInfo(d *rpc.Decoder) FileInfo {
	return FileInfo{
		LFN:      d.String(),
		Path:     d.String(),
		Size:     d.Int64(),
		CRC32:    d.String(),
		FileType: d.String(),
		State:    FileState(d.String()),
	}
}

// encodeFileInfos and decodeFileInfos are the counted-list form, shared by
// the journal (notice queues) and the wire (gdmp.notify, gdmp.catalog).
func encodeFileInfos(e *rpc.Encoder, files []FileInfo) {
	e.Uint32(uint32(len(files)))
	for _, fi := range files {
		encodeFileInfo(e, fi)
	}
}

func decodeFileInfos(d *rpc.Decoder) []FileInfo {
	n := d.Uint32()
	// n is untrusted (a peer's, or the disk's): it sizes no more than a
	// token preallocation, and append grows with the entries present.
	out := make([]FileInfo, 0, min(n, 16))
	for i := uint32(0); i < n; i++ {
		fi := decodeFileInfo(d)
		if d.Err() != nil {
			return nil
		}
		out = append(out, fi)
	}
	return out
}

// tableLock returns the lock of the table that records of this tag change
// (the tags, fixed on disk, are numbered table by table).
func (st *persistState) tableLock(tag uint8) sync.Locker {
	switch {
	case tag <= recSetState:
		return &st.files.mu
	case tag <= recNotifyDrop:
		return &st.subMu
	default:
		return &st.tabMu
	}
}

// apply runs one record against the tables, the only writer they have.
// record calls it after a successful append and replay calls it for every
// recovered record — the snapshot's, then the WAL's — in order, so a
// running site and a restarted one share one transition function. The
// caller holds the journal lock (at replay, the only reference); apply
// takes the lock of the table it changes. It keeps one rule across two
// tables: no intent names a cataloged LFN (an older build's journal may);
// and one in the catalog: a path holds one entry.
func (st *persistState) apply(rec []byte) error {
	d := rpc.NewDecoder(rec)
	tag := d.Uint8()
	mu := st.tableLock(tag)
	mu.Lock()
	defer mu.Unlock()
	switch c := st.files; tag {
	case recPutFile:
		fi := decodeFileInfo(d)
		if d.Err() != nil {
			break
		}
		old, had := c.byLFN[fi.LFN]
		if had && old.Path != fi.Path {
			delete(c.byPath, old.Path)
		}
		if other, ok := c.byPath[fi.Path]; ok && other != fi.LFN {
			// One path holds one file: the landing replaced the bytes the
			// other entry described.
			delete(c.byLFN, other)
			delete(c.landing, other)
		}
		c.byLFN[fi.LFN] = fi
		c.byPath[fi.Path] = fi.LFN
		st.tabMu.Lock()
		delete(st.pulls, fi.LFN)
		st.tabMu.Unlock()
		if !had {
			// A new entry is still landing (pool, parity sidecar): the
			// table knows it at once — the pool's eviction callback must
			// find it — but has and await report it only after reveal.
			c.landing[fi.LFN] = true
		}
		c.size.Set(int64(len(c.byLFN)))
	case recRemoveFile:
		lfn := d.String()
		if fi, ok := c.byLFN[lfn]; ok && c.byPath[fi.Path] == lfn {
			delete(c.byPath, fi.Path)
		}
		delete(c.byLFN, lfn)
		delete(c.landing, lfn)
		c.size.Set(int64(len(c.byLFN)))
	case recSetState:
		lfn := d.String()
		state := FileState(d.String())
		if fi, ok := c.byLFN[lfn]; ok && d.Err() == nil {
			fi.State = state
			c.byLFN[lfn] = fi
		}
	case recSubscribe:
		name := d.String()
		addr := d.String()
		if d.Err() != nil {
			break
		}
		if sub, ok := st.subs[name]; ok {
			// Re-subscribing updates the address and resets delivery
			// health — the site is telling us it is back; the undelivered
			// queue survives.
			sub.addr = addr
			sub.suspect = false
			sub.failures = 0
		} else {
			st.subs[name] = &subscriberState{name: name, addr: addr}
		}
	case recUnsubscribe:
		delete(st.subs, d.String())
	case recNotifyQueue:
		name := d.String()
		files := decodeFileInfos(d)
		if sub, ok := st.subs[name]; ok && d.Err() == nil {
			sub.queue = append(sub.queue, files...)
		}
	case recNotifyAck:
		name := d.String()
		n := int(d.Uint32())
		if sub, ok := st.subs[name]; ok && d.Err() == nil {
			// Notices queued while the send ran stay; the copy leaves the
			// sender's batch alone.
			sub.queue = append([]FileInfo(nil), sub.queue[min(n, len(sub.queue)):]...)
			sub.failures = 0
		}
	case recNotifyDrop:
		if sub, ok := st.subs[d.String()]; ok && d.Err() == nil {
			sub.suspect = true
			sub.queue = nil
		}
	case recPullQueued:
		fi := decodeFileInfo(d)
		if _, here := c.byLFN[fi.LFN]; !here && d.Err() == nil {
			st.pulls[fi.LFN] = fi
		}
	case recPullDone:
		delete(st.pulls, d.String())
	case recProducerAdd:
		if addr := d.String(); d.Err() == nil {
			st.producers[addr] = true
		}
	case recProducerRemove:
		delete(st.producers, d.String())
	case recScrubCursor:
		if lfn := d.String(); d.Err() == nil {
			st.scrubCursor = lfn
		}
	case recParitySet: // retired: decoded, then ignored
		_, _ = d.String(), d.String()
	case recParityDrop: // retired: decoded, then ignored
		_ = d.String()
	default:
		return fmt.Errorf("unknown record tag %d", tag)
	}
	return d.Err()
}

// --- restart recovery --------------------------------------------------------

// RecoveryStats reports what a restart reconstructed and repaired.
type RecoveryStats struct {
	// FilesRestored is how many local-catalog entries replay recovered.
	FilesRestored int

	// SubscribersRestored is how many subscribers replay recovered.
	SubscribersRestored int

	// NoticesRequeued is how many undelivered publication notices went
	// back onto subscriber delivery queues.
	NoticesRequeued int

	// PullsRequeued is how many unfinished pulls were resubmitted (or
	// left pending when AutoReplicate is off).
	PullsRequeued int

	// PartsResumed is how many .part staging files matched an unfinished
	// pull and were kept for resumption.
	PartsResumed int

	// Quarantined is how many orphaned .part files and size-mismatched
	// catalog files were moved into the quarantine directory.
	Quarantined int

	// MissingFiles is how many catalog entries had no bytes on disk and
	// were dropped from the local catalog.
	MissingFiles int

	// TornBytes is how many trailing journal bytes a crash left torn
	// (preserved in the journal's wal.torn).
	TornBytes int64
}

// recordRecoveryMetrics publishes the gdmp_recovery_* family.
func recordRecoveryMetrics(reg *obs.Registry, rs RecoveryStats) {
	set := func(name, help string, v int64) {
		reg.Gauge(RecoveryMetricsPrefix+"_"+name, help).Set(v)
	}
	set("files_restored", "Local catalog entries recovered from the journal at the last restart.", int64(rs.FilesRestored))
	set("subscribers_restored", "Subscribers recovered from the journal at the last restart.", int64(rs.SubscribersRestored))
	set("notices_requeued", "Undelivered publication notices requeued at the last restart.", int64(rs.NoticesRequeued))
	set("pulls_requeued", "Unfinished pulls requeued at the last restart.", int64(rs.PullsRequeued))
	set("parts_resumed", "Partial downloads kept for resumption at the last restart.", int64(rs.PartsResumed))
	set("quarantined", "Orphaned or corrupt files quarantined at the last restart.", int64(rs.Quarantined))
	set("missing_files", "Catalog entries dropped because their bytes were gone at the last restart.", int64(rs.MissingFiles))
	set("torn_bytes", "Torn journal bytes truncated at the last restart.", rs.TornBytes)
}

// restoreFromJournal finishes what the journal replay began: it counts
// what the replayed tables hold, then reconciles the data directory and
// the parity sidecars against the recovered catalog. Called from NewSite
// before the servers start; delivery drains and pull requeues are kicked
// separately once they can run (resumeRecovered).
func (s *Site) restoreFromJournal(tornBytes int64) error {
	rs := RecoveryStats{TornBytes: tornBytes, FilesRestored: s.local.len()}
	tbl := &s.persist.st
	tbl.subMu.Lock()
	rs.SubscribersRestored = len(tbl.subs)
	for _, sub := range tbl.subs {
		rs.NoticesRequeued += len(sub.queue)
	}
	tbl.subMu.Unlock()
	s.updateNotifyGauges()

	if err := s.reconcileDataDir(&rs); err != nil {
		return err
	}
	// Parity reconciliation runs after the catalog has settled: only the
	// replicas that survived it have their sidecars checked.
	s.recoverParity()
	s.recovery = rs
	return nil
}

// reconcileDataDir checks the recovered catalog against the bytes on disk
// and sweeps staging files: a catalog entry without its file is dropped, a
// size mismatch is quarantined, a .part file is kept only when an
// unfinished pull claims it.
func (s *Site) reconcileDataDir(rs *RecoveryStats) error {
	for _, fi := range s.local.list() {
		if fi.State != StateDisk {
			continue
		}
		localPath, err := s.resolveLocal(fi.Path)
		if err != nil {
			continue
		}
		info, err := os.Stat(localPath)
		switch {
		case os.IsNotExist(err):
			s.logger.Printf("gdmp[%s]: recovery: %s has no bytes at %s, dropping catalog entry",
				s.cfg.Name, fi.LFN, fi.Path)
			err = s.withdraw(s.ctx, fi, bytesKept, false)
			rs.MissingFiles++
		case err == nil && fi.Size > 0 && info.Size() != fi.Size:
			s.logger.Printf("gdmp[%s]: recovery: %s is %d bytes, catalog says %d; quarantining",
				s.cfg.Name, fi.LFN, info.Size(), fi.Size)
			err = s.withdraw(s.ctx, fi, bytesQuarantined, false)
			if _, serr := os.Lstat(localPath); os.IsNotExist(serr) {
				rs.Quarantined++ // counted only when the bytes did move
			}
		}
		if err != nil {
			return err
		}
	}

	// Staging files an unfinished pull may legitimately resume.
	expected := make(map[string]bool)
	for _, fi := range s.persist.st.incompletePulls() {
		if fi.Path == "" {
			continue
		}
		if lp, err := s.resolveLocal(fi.Path); err == nil {
			expected[lp+gridftp.PartSuffix] = true
		}
	}
	return filepath.WalkDir(s.cfg.DataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), gridftp.PartSuffix) {
			return err
		}
		if expected[path] {
			rs.PartsResumed++
			return nil
		}
		s.logger.Printf("gdmp[%s]: recovery: quarantining orphaned staging file %s", s.cfg.Name, path)
		if s.quarantine(path) {
			rs.Quarantined++
		}
		return nil
	})
}

// quarantine moves a suspect file into <StateDir>/quarantine, reporting
// whether the move happened. The file keeps its base name, suffixed on
// collision, so repeated recoveries never overwrite earlier evidence.
func (s *Site) quarantine(path string) bool {
	qdir := s.quarantineDir()
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.logger.Printf("gdmp[%s]: quarantine dir: %v", s.cfg.Name, err)
		return false
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), i))
	}
	if err := durable.Rename(path, dst); err != nil {
		s.logger.Printf("gdmp[%s]: quarantine %s: %v", s.cfg.Name, path, err)
		return false
	}
	return true
}

// resumeRecovered kicks the deferred halves of recovery once the site is
// fully up: redelivery drains for restored notification queues, and the
// unfinished pulls taken on again (takeOn).
func (s *Site) resumeRecovered() {
	s.startDrains()
	pulls := s.persist.st.incompletePulls()
	s.recovery.PullsRequeued = len(pulls)
	recordRecoveryMetrics(s.metrics, s.recovery)
	if len(pulls) > 0 {
		s.logger.Printf("gdmp[%s]: recovery: requeueing %d unfinished pulls", s.cfg.Name, len(pulls))
		s.takeOn(pulls)
	}
}
