// Package journal is the crash-safe durability core of a GDMP site: an
// append-only, fsync'd, record-checksummed write-ahead log paired with
// compacting snapshots. The paper's recovery story (Section 4.1's
// catalog-based failure recovery, Section 3.2's restartable transfers)
// assumes a site can die at an arbitrary instruction and come back; this
// package supplies the on-disk contract that makes the in-memory state
// reconstructible after exactly such a death.
//
// Layout under the journal directory:
//
//	snapshot    — the records that rebuild the state (replaced atomically)
//	wal.<gen>   — records appended since the generation-<gen> snapshot
//	wal.torn    — quarantined bytes from the last torn tail, for forensics
//
// Every record, in either file, is framed as
//
//	u32 payload length | u32 IEEE CRC-32 of payload | payload
//
// and a snapshot is such frames behind a header,
//
//	"gdmp-journal-snapshot v3\n" | u64 generation | u32 record count | frames
//
// so a caller has one decoder, its record's, and Open hands it the
// snapshot's records and then the WAL's as one run. Append only returns
// after the bytes are written and fsync'd, so a caller that journals a
// mutation before acknowledging it can never ack state the disk does not
// hold. A torn or corrupt WAL tail — the signature of a crash mid-append —
// is cut off at the last intact record, preserved in wal.torn, and the log
// truncated so appends continue from a clean boundary.
//
// Compact streams a snapshot to a temporary file, fsyncs it, and renames
// it into place, so a crash during compaction leaves either the old
// snapshot or the new one, never a hybrid; a damaged snapshot (a bad
// frame, or fewer records than its header counts) is ErrCorruptSnapshot.
// Each compaction advances the generation and starts a fresh wal.<gen>;
// Open replays only the WAL whose generation matches the snapshot it
// loaded and deletes the rest, so a crash between the snapshot rename and
// the old log's removal can never double-apply records the snapshot
// already contains (records may therefore be deltas, not just state
// replacements).
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gdmp/internal/obs"
)

// MetricsPrefix prefixes every journal metric.
const MetricsPrefix = "gdmp_journal"

// Names of the files managed inside the journal directory.
const (
	snapshotName = "snapshot"
	walPrefix    = "wal."
	tornName     = "wal.torn"
)

// walFileName is the write-ahead log of one snapshot generation.
func walFileName(gen uint64) string {
	return fmt.Sprintf("%s%d", walPrefix, gen)
}

// snapshotHeader guards against loading a foreign file as a snapshot. An
// older build's snapshot (v2: one payload in the caller's layout) is
// refused.
const (
	snapshotHeader = snapshotMagic + "v3\n"
	snapshotMagic  = "gdmp-journal-snapshot "
)

// MaxRecord bounds a single record; anything larger is rejected at Append
// and Compact and treated as corruption at replay.
const MaxRecord = 64 << 20

// ErrCorruptSnapshot reports a snapshot that fails a frame's checksum, its
// framing or its record count. Unlike a torn WAL tail — which is expected
// after a crash and recovered from silently — a broken snapshot means the
// atomic-rename contract was violated (disk fault, manual edit) and needs
// an operator.
var ErrCorruptSnapshot = errors.New("journal: corrupt snapshot")

// Options tunes a Journal.
type Options struct {
	// NoSync skips the fsync after every append. Throughput harnesses
	// may set it; durable deployments must not.
	NoSync bool

	// Registry receives the gdmp_journal_* metrics (obs.Default when nil).
	Registry *obs.Registry
}

// Recovery is what Open reconstructed from disk.
type Recovery struct {
	// Records are the latest snapshot's records, then the intact WAL
	// records appended after it, in append order: replaying them in turn
	// rebuilds the state.
	Records [][]byte

	// TornBytes is how many trailing bytes were cut from the WAL because
	// they did not form an intact record (crash mid-append). They are
	// preserved in wal.torn.
	TornBytes int64
}

// metrics bundles the journal's collectors.
type metrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	compactions *obs.Counter
	walBytes    *obs.Gauge
	walRecords  *obs.Gauge
	tornTails   *obs.Counter
	failed      *obs.Gauge
}

func metricsFor(r *obs.Registry) *metrics {
	if r == nil {
		r = obs.Default
	}
	return &metrics{
		appends: r.Counter(MetricsPrefix+"_appends_total",
			"Records appended (and fsync'd) to the write-ahead log."),
		appendBytes: r.Counter(MetricsPrefix+"_append_bytes_total",
			"Payload bytes appended to the write-ahead log."),
		compactions: r.Counter(MetricsPrefix+"_compactions_total",
			"Snapshot compactions that truncated the write-ahead log."),
		walBytes: r.Gauge(MetricsPrefix+"_wal_bytes",
			"Current size of the write-ahead log in bytes."),
		walRecords: r.Gauge(MetricsPrefix+"_wal_records",
			"Records in the write-ahead log since the last compaction."),
		tornTails: r.Counter(MetricsPrefix+"_torn_tails_total",
			"Torn or corrupt WAL tails truncated and quarantined at open."),
		failed: r.Gauge(MetricsPrefix+"_failed",
			"1 when the journal has latched an append/fsync failure and refuses writes."),
	}
}

// Journal is an open write-ahead log plus its snapshot. Methods are not
// safe for concurrent use; callers serialize (a site journals under the
// same lock that guards the state being journaled).
type Journal struct {
	dir  string
	opts Options
	wal  *os.File
	gen  uint64 // snapshot generation the open WAL belongs to
	size int64  // current WAL size in bytes
	recs int    // records since last compaction
	fail error  // sticky append failure: a partial frame may be on disk
	met  *metrics
}

// Open opens (creating if needed) the journal in dir and replays it.
func Open(dir string, opts Options) (*Journal, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	j := &Journal{dir: dir, opts: opts, met: metricsFor(opts.Registry)}

	snapPath := filepath.Join(dir, snapshotName)
	var snap [][]byte
	var gen uint64
	b, err := os.ReadFile(snapPath)
	switch {
	case err == nil:
		snap, gen, err = parseSnapshot(b)
	case os.IsNotExist(err):
		err = nil
	}
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("%s: %w", snapPath, err)
	}
	j.gen = gen

	// Sweep leftovers of an interrupted compaction: a stale previous-
	// generation WAL (crash after the snapshot rename but before the old
	// log's removal) or an orphaned next-generation WAL and snapshot temp
	// (crash before the rename). Replaying a foreign-generation WAL onto
	// this snapshot would re-apply records the snapshot already contains.
	removeForeignWALs(dir, gen)
	os.Remove(filepath.Join(dir, snapshotName+".tmp"))

	walPath := filepath.Join(dir, walFileName(gen))
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	records, good, torn, err := recoverWAL(f, filepath.Join(dir, tornName))
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	if torn > 0 {
		j.met.tornTails.Inc()
	}
	j.wal = f
	j.size = int64(good)
	j.recs = len(records)
	j.met.walBytes.Set(j.size)
	j.met.walRecords.Set(int64(j.recs))
	return j, Recovery{Records: append(snap, records...), TornBytes: int64(torn)}, nil
}

// recoverWAL reads f's intact records and leaves f positioned after the
// last of them, good bytes in; a torn tail after that is preserved at
// tornPath and cut off.
func recoverWAL(f *os.File, tornPath string) (records [][]byte, good, torn int, err error) {
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, 0, err
	}
	records, good = readFrames(b)
	if torn = len(b) - good; torn > 0 {
		if err = os.WriteFile(tornPath, b[good:], 0o644); err == nil {
			err = f.Truncate(int64(good))
		}
		if err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		_, err = f.Seek(int64(good), io.SeekStart)
	}
	return records, good, torn, err
}

// errOlderSnapshot refuses a snapshot in a layout an older build wrote.
var errOlderSnapshot = errors.New(`journal: snapshot written by an older build, which this build does not read; see README "Upgrading state directories"`)

// parseSnapshot splits a snapshot file into its records and generation.
func parseSnapshot(b []byte) ([][]byte, uint64, error) {
	body, ok := bytes.CutPrefix(b, []byte(snapshotHeader))
	switch {
	case !ok && bytes.HasPrefix(b, []byte(snapshotMagic)):
		return nil, 0, errOlderSnapshot
	case !ok || len(body) < 12:
		return nil, 0, fmt.Errorf("%w: bad header", ErrCorruptSnapshot)
	}
	gen, count := binary.BigEndian.Uint64(body), binary.BigEndian.Uint32(body[8:])
	records, n := readFrames(body[12:])
	if n != len(body)-12 {
		return nil, 0, fmt.Errorf("%w: record %d is cut short or fails its checksum", ErrCorruptSnapshot, len(records))
	}
	if uint64(len(records)) != uint64(count) {
		return nil, 0, fmt.Errorf("%w: %d of %d records", ErrCorruptSnapshot, len(records), count)
	}
	return records, gen, nil
}

// removeForeignWALs deletes every wal.<n> whose generation differs from
// gen; best-effort (a file that survives is removed at the next open).
func removeForeignWALs(dir string, gen uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == walFileName(gen) || !strings.HasPrefix(name, walPrefix) {
			continue
		}
		if _, err := strconv.ParseUint(name[len(walPrefix):], 10, 64); err != nil {
			continue // wal.torn and friends
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// readFrames returns the payloads of the intact frames at the start of b,
// aliasing b, and how many bytes those frames span. It stops at the first
// frame that is cut short, claims more than MaxRecord, or fails its
// checksum: the WAL cuts what follows off as a torn tail, a snapshot is
// corrupt.
func readFrames(b []byte) (records [][]byte, n int) {
	for len(b)-n >= 8 {
		size := binary.BigEndian.Uint32(b[n:])
		sum := binary.BigEndian.Uint32(b[n+4:])
		if size > MaxRecord || len(b)-n-8 < int(size) {
			break
		}
		end := n + 8 + int(size)
		payload := b[n+8 : end : end]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		records = append(records, payload)
		n = end
	}
	return records, n
}

// appendFrame appends payload's frame to dst: the one frame writer, for a
// WAL append and a snapshot record alike.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Append frames, writes, and fsyncs one record. It returns only after the
// bytes are durable (unless Options.NoSync), so callers may acknowledge
// the journaled mutation the moment Append returns — and must refuse to
// acknowledge when it errors. A write or fsync failure latches the
// journal failed: a partial frame may already be on disk, and appending
// past it would bury every later record behind a corrupt one at replay.
func (j *Journal) Append(payload []byte) error {
	if j.fail != nil {
		return j.fail
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds %d", len(payload), MaxRecord)
	}
	buf := appendFrame(make([]byte, 0, 8+len(payload)), payload)
	if _, err := j.wal.Write(buf); err != nil {
		j.fail = fmt.Errorf("journal: append: %w", err)
		j.met.failed.Set(1)
		return j.fail
	}
	if !j.opts.NoSync {
		if err := j.wal.Sync(); err != nil {
			j.fail = fmt.Errorf("journal: fsync: %w", err)
			j.met.failed.Set(1)
			return j.fail
		}
	}
	j.size += int64(len(buf))
	j.recs++
	j.met.appends.Inc()
	j.met.appendBytes.Add(int64(len(payload)))
	j.met.walBytes.Set(j.size)
	j.met.walRecords.Set(int64(j.recs))
	return nil
}

// Records reports how many records the WAL holds since the last
// compaction (replayed ones included); sites use it to decide when to
// compact.
func (j *Journal) Records() int { return j.recs }

// Failed reports the latched append/fsync failure, if any. Once latched
// the journal refuses every further write; callers surface this through
// status RPCs so operators learn a site is running without durability.
func (j *Journal) Failed() error { return j.fail }

// Compact atomically replaces the snapshot with the records that rebuild
// the caller's state, advances the generation, and retires the old
// write-ahead log for a fresh empty one. records has iter.Seq[[]byte]'s
// shape (the module's go line predates package iter) and may reuse one
// buffer: each record is written out before the next is asked for. A crash
// at any point leaves either the old snapshot with its own WAL intact, or
// the new snapshot with an empty (or absent) wal.<gen+1>; Open never
// replays a WAL from a different generation than the snapshot it loaded,
// so records are free to be deltas.
func (j *Journal) Compact(records func(yield func([]byte) bool)) error {
	if j.fail != nil {
		return j.fail
	}
	newGen := j.gen + 1
	path := filepath.Join(j.dir, snapshotName)
	tmp := path + ".tmp"
	if err := writeSnapshot(tmp, newGen, records); err != nil {
		os.Remove(tmp)
		return err
	}
	// The new generation's (empty) WAL exists durably before the rename:
	// whichever side of the rename a crash lands on, the WAL matching the
	// surviving snapshot holds no foreign records.
	newWALPath := filepath.Join(j.dir, walFileName(newGen))
	nw, err := os.OpenFile(newWALPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := nw.Sync(); err != nil {
		nw.Close()
		os.Remove(newWALPath)
		os.Remove(tmp)
		return err
	}
	syncDir(j.dir)
	if err := os.Rename(tmp, path); err != nil {
		nw.Close()
		os.Remove(newWALPath)
		os.Remove(tmp)
		return err
	}
	syncDir(j.dir)
	// The new snapshot is durable; retire the old generation's log.
	oldWAL, oldGen := j.wal, j.gen
	j.wal = nw
	j.gen = newGen
	j.size = 0
	j.recs = 0
	oldWAL.Close()
	os.Remove(filepath.Join(j.dir, walFileName(oldGen)))
	syncDir(j.dir)
	j.met.compactions.Inc()
	j.met.walBytes.Set(0)
	j.met.walRecords.Set(0)
	return nil
}

// writeSnapshot streams the header and the framed records into a new file
// at path and fsyncs it. The record count is known only once the last
// record is out, so it goes into the header last.
func writeSnapshot(path string, gen uint64, records func(yield func([]byte) bool)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	hdr := binary.BigEndian.AppendUint64([]byte(snapshotHeader), gen)
	w.Write(binary.BigEndian.AppendUint32(hdr, 0)) // a write error sticks, for Flush
	var count uint32
	var frame []byte
	records(func(rec []byte) bool {
		if err != nil {
			return false
		}
		if len(rec) > MaxRecord {
			err = fmt.Errorf("journal: snapshot record of %d bytes exceeds %d", len(rec), MaxRecord)
			return false
		}
		frame = appendFrame(frame[:0], rec)
		_, err = w.Write(frame)
		count++
		return err == nil
	})
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		_, err = f.WriteAt(binary.BigEndian.AppendUint32(nil, count), int64(len(hdr)))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close closes the write-ahead log file.
func (j *Journal) Close() error {
	if j.wal == nil {
		return nil
	}
	err := j.wal.Close()
	j.wal = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
