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
//	snapshot    — the latest compacted snapshot (replaced atomically),
//	              stamped with its generation number
//	wal.<gen>   — records appended since the generation-<gen> snapshot
//	wal.torn    — quarantined bytes from the last torn tail, for forensics
//
// Every record is framed as
//
//	u32 payload length | u32 IEEE CRC-32 of payload | payload
//
// and Append only returns after the bytes are written and fsync'd, so a
// caller that journals a mutation before acknowledging it can never ack
// state the disk does not hold. On Open the write-ahead log is replayed;
// a torn or corrupt tail record — the signature of a crash mid-append —
// is cut off at the last intact record, preserved in wal.torn, and the
// log truncated so subsequent appends continue from a clean boundary.
//
// Snapshots use the same length+CRC framing behind a header line, are
// written to a temporary file, fsync'd, and renamed into place, so a
// crash during compaction leaves either the old snapshot or the new one,
// never a hybrid. Each compaction advances the generation and starts a
// fresh wal.<gen>; Open replays only the WAL whose generation matches the
// snapshot it loaded and deletes the rest, so a crash between the
// snapshot rename and the old log's removal can never double-apply
// records the snapshot already contains (records may therefore be deltas,
// not just state replacements).
package journal

import (
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

// snapshotHeader guards against loading a foreign file as a snapshot.
// v2 added the generation stamp that ties a snapshot to its WAL.
const snapshotHeader = "gdmp-journal-snapshot v2\n"

// MaxRecord bounds a single record (and the snapshot payload is bounded
// by the same framing arithmetic); anything larger is rejected at Append
// and treated as corruption at replay.
const MaxRecord = 64 << 20

// ErrCorruptSnapshot reports a snapshot that fails its checksum or
// framing. Unlike a torn WAL tail — which is expected after a crash and
// recovered from silently — a broken snapshot means the atomic-rename
// contract was violated (disk fault, manual edit) and needs an operator.
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
	// Snapshot is the latest compacted snapshot payload, nil when the
	// journal had none.
	Snapshot []byte

	// Records are the intact WAL records appended after the snapshot, in
	// append order.
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

	var rec Recovery
	snap, gen, err := readSnapshot(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, Recovery{}, err
	}
	rec.Snapshot = snap
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
	records, good, torn, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	if len(torn) > 0 {
		// Preserve the tail for forensics, then cut the log back to the
		// last intact record so appends resume from a clean boundary.
		if err := os.WriteFile(filepath.Join(dir, tornName), torn, 0o644); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		rec.TornBytes = int64(len(torn))
		j.met.tornTails.Inc()
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	rec.Records = records
	j.wal = f
	j.size = good
	j.recs = len(records)
	j.met.walBytes.Set(j.size)
	j.met.walRecords.Set(int64(j.recs))
	return j, rec, nil
}

// readSnapshot loads and verifies the snapshot file, returning its
// payload and generation; a missing snapshot returns (nil, 0, nil).
func readSnapshot(path string) ([]byte, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	h := []byte(snapshotHeader)
	if len(b) < len(h)+16 || string(b[:len(h)]) != snapshotHeader {
		return nil, 0, fmt.Errorf("%w: bad header in %s", ErrCorruptSnapshot, path)
	}
	b = b[len(h):]
	gen := binary.BigEndian.Uint64(b[0:8])
	n := binary.BigEndian.Uint32(b[8:12])
	sum := binary.BigEndian.Uint32(b[12:16])
	if uint64(n) != uint64(len(b)-16) {
		return nil, 0, fmt.Errorf("%w: length %d of %d payload bytes in %s",
			ErrCorruptSnapshot, n, len(b)-16, path)
	}
	payload := b[16:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch in %s", ErrCorruptSnapshot, path)
	}
	return payload, gen, nil
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

// scanWAL reads intact records and returns them, the offset of the first
// byte past the last intact record, and any torn tail bytes after it.
func scanWAL(f *os.File) (records [][]byte, good int64, torn []byte, err error) {
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, nil, err
	}
	off := 0
	for {
		if len(b)-off < 8 {
			break // short header: torn
		}
		n := binary.BigEndian.Uint32(b[off : off+4])
		sum := binary.BigEndian.Uint32(b[off+4 : off+8])
		if n > MaxRecord || len(b)-off-8 < int(n) {
			break // impossible or short payload: torn
		}
		payload := b[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record: everything from here is suspect
		}
		records = append(records, append([]byte(nil), payload...))
		off += 8 + int(n)
	}
	if off < len(b) {
		torn = append([]byte(nil), b[off:]...)
	}
	return records, int64(off), torn, nil
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
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
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

// Compact atomically replaces the snapshot with the given payload,
// advances the generation, and retires the old write-ahead log for a
// fresh empty one. A crash at any point leaves either the old snapshot
// with its own WAL intact, or the new snapshot with an empty (or absent)
// wal.<gen+1>; Open never replays a WAL from a different generation than
// the snapshot it loaded, so records are free to be deltas.
func (j *Journal) Compact(snapshot []byte) error {
	if j.fail != nil {
		return j.fail
	}
	newGen := j.gen + 1
	path := filepath.Join(j.dir, snapshotName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	// The header, then the payload as given: a snapshot can be large, so
	// it is not copied into a second buffer.
	hdr := binary.BigEndian.AppendUint64([]byte(snapshotHeader), newGen)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(snapshot)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(snapshot))
	_, err = f.Write(hdr)
	if err == nil {
		_, err = f.Write(snapshot)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
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
