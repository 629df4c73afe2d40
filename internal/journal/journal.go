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
// so a caller has one decoder, its record's, and Open streams it the
// snapshot's records and then the WAL's as one run. Append only returns
// after the bytes are written and fsync'd, so a caller that journals a
// mutation before acknowledging it can never ack state the disk does not
// hold. A torn or corrupt WAL tail — the signature of a crash mid-append —
// is cut off at the last intact record, preserved in wal.torn, and the log
// truncated so appends continue from a clean boundary.
//
// Compact streams a snapshot through durable.WriteAtomic, so a crash or a
// power cut during compaction leaves either the old
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

	"gdmp/internal/durable"
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

// Options configures Open.
type Options struct {
	// NoSync skips the fsync after every append. Throughput harnesses
	// may set it; durable deployments must not.
	NoSync bool

	// Registry receives the gdmp_journal_* metrics (private when nil).
	Registry *obs.Registry

	// Replay, when set, is handed the records that rebuild the state, in
	// append order: the snapshot's, then the intact WAL's after it. It
	// copies what it keeps (the slice is reused); when Open fails, even past
	// a corrupt snapshot's first records, the caller discards what it built.
	Replay func(rec []byte) error
}

// Recovery is what Open repaired on disk.
type Recovery struct {
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
		r = obs.NewRegistry()
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

// Open opens (creating if needed) the journal in dir and replays it
// through opts.Replay.
func Open(dir string, opts Options) (*Journal, Recovery, error) {
	if err := durable.MkdirAll(dir); err != nil {
		return nil, Recovery{}, err
	}
	j := &Journal{dir: dir, opts: opts, met: metricsFor(opts.Registry)}
	snapPath := filepath.Join(dir, snapshotName)
	gen, err := replaySnapshot(snapPath, opts.Replay)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("%s: %w", snapPath, err)
	}
	j.gen = gen

	// Sweep leftovers of an interrupted compaction: a stale previous-
	// generation WAL (crash after the snapshot rename but before the old
	// log's removal) or an orphaned next-generation WAL and staged snapshot
	// (crash before the rename). Replaying a foreign-generation WAL onto
	// this snapshot would re-apply records the snapshot already contains.
	removeForeignWALs(dir, gen)
	os.Remove(snapPath + durable.PartSuffix)

	f, err := os.OpenFile(filepath.Join(dir, walFileName(gen)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	records, good, torn, err := recoverWAL(f, filepath.Join(dir, tornName), opts.Replay)
	if err == nil {
		// The WAL may be new, and its name must be durable before a record
		// lands in it; the sweep's removals become durable too.
		err = durable.SyncDir(dir)
	}
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	if torn > 0 {
		j.met.tornTails.Inc()
	}
	j.wal = f
	j.size = good
	j.recs = records
	j.met.walBytes.Set(j.size)
	j.met.walRecords.Set(int64(j.recs))
	j.met.failed.Set(0) // an earlier journal's latch in this registry is not ours
	return j, Recovery{TornBytes: torn}, nil
}

// recoverWAL replays f's intact records and leaves f positioned after the
// last of them, good bytes in; a torn tail after that is preserved at
// tornPath and cut off.
func recoverWAL(f *os.File, tornPath string, replay func([]byte) error) (records int, good, torn int64, err error) {
	records, good, err = readFrames(bufio.NewReaderSize(f, 64<<10), replay)
	var st os.FileInfo
	if err == nil || err == errTorn {
		st, err = f.Stat()
	}
	if err == nil && st.Size() > good {
		torn = st.Size() - good
		var tail []byte
		if tail, err = io.ReadAll(io.NewSectionReader(f, good, torn)); err == nil {
			err = os.WriteFile(tornPath, tail, 0o644)
		}
		if err == nil {
			err = f.Truncate(good)
		}
		if err == nil {
			err = durable.Sync(f)
		}
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	return records, good, torn, err
}

// errOlderSnapshot refuses a snapshot in a layout an older build wrote.
var errOlderSnapshot = errors.New(`journal: snapshot written by an older build, which this build does not read; see README "Upgrading state directories"`)

// replaySnapshot hands the records of the snapshot at path to replay and
// returns its generation; without a snapshot that is 0, with no records.
func replaySnapshot(path string, replay func([]byte) error) (uint64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	} else if err != nil {
		return 0, err
	}
	defer f.Close()
	return readSnapshot(bufio.NewReaderSize(f, 64<<10), replay)
}

// readSnapshot streams a snapshot's records to replay and returns its
// generation. The snapshot is corrupt unless its frames run to the end and
// number as many as its header counts.
func readSnapshot(r io.Reader, replay func([]byte) error) (uint64, error) {
	var hdr [len(snapshotHeader) + 12]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, err
	}
	switch ok := bytes.HasPrefix(hdr[:n], []byte(snapshotHeader)); {
	case !ok && bytes.HasPrefix(hdr[:n], []byte(snapshotMagic)):
		return 0, errOlderSnapshot
	case !ok || n < len(hdr):
		return 0, fmt.Errorf("%w: bad header", ErrCorruptSnapshot)
	}
	body := hdr[len(snapshotHeader):]
	gen, count := binary.BigEndian.Uint64(body), binary.BigEndian.Uint32(body[8:])
	records, _, err := readFrames(r, replay)
	switch {
	case err == errTorn:
		return 0, fmt.Errorf("%w: record %d is cut short or fails its checksum", ErrCorruptSnapshot, records)
	case err != nil:
		return 0, err
	case uint64(records) != uint64(count):
		return 0, fmt.Errorf("%w: %d of %d records", ErrCorruptSnapshot, records, count)
	}
	return gen, nil
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

// errTorn ends readFrames at a frame that is cut short, claims more than
// MaxRecord, or fails its checksum: the WAL cuts what follows off as a torn
// tail, a snapshot is corrupt.
var errTorn = errors.New("journal: torn frame")

// readFrames hands the payload of each intact frame at the start of r to
// fn, if any, and returns how many frames and bytes that was; it ends at
// EOF or with errTorn. The payload buffer is reused, so fn copies what it
// keeps, and grows only as bytes arrive, never to a length a frame claims.
func readFrames(r io.Reader, fn func([]byte) error) (records int, n int64, err error) {
	var hdr [8]byte
	var payload bytes.Buffer
	for {
		_, err = io.ReadFull(r, hdr[:])
		size, sum := binary.BigEndian.Uint32(hdr[:]), binary.BigEndian.Uint32(hdr[4:])
		switch {
		case err == io.EOF:
			return records, n, nil
		case err != nil:
		case size > MaxRecord:
			err = errTorn
		default:
			payload.Reset()
			_, err = io.CopyN(&payload, r, int64(size))
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF || err == nil && crc32.ChecksumIEEE(payload.Bytes()) != sum {
			err = errTorn
		}
		if err == nil && fn != nil {
			err = fn(payload.Bytes())
		}
		if err != nil {
			return records, n, err
		}
		records++
		n += 8 + int64(size)
	}
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
		return j.latch("append", err)
	}
	if !j.opts.NoSync {
		if err := durable.Sync(j.wal); err != nil {
			return j.latch("fsync", err)
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

// latch fails the journal for good: every later write returns the error.
func (j *Journal) latch(op string, err error) error {
	j.fail = fmt.Errorf("journal: %s: %w", op, err)
	j.met.failed.Set(1)
	return j.fail
}

// Records reports how many records the WAL holds since the last
// compaction (replayed ones included); sites use it to decide when to
// compact.
func (j *Journal) Records() int { return j.recs }

// Failed reports the latched append/fsync failure, if any. Once latched
// the journal refuses every further write; the gdmp_journal_failed gauge
// tells operators a site is running without durability.
func (j *Journal) Failed() error { return j.fail }

// Compact atomically replaces the snapshot with the records that rebuild
// the caller's state, advances the generation, and retires the old
// write-ahead log for a fresh empty one. records has iter.Seq[[]byte]'s
// shape (the module's go line predates package iter) and may reuse one
// buffer: each record is written out before the next is asked for. A crash
// at any point leaves either the old snapshot with its own WAL intact, or
// the new snapshot with an empty (or absent) wal.<gen+1>; Open never
// replays a WAL from a different generation than the snapshot it loaded,
// so records are free to be deltas. A directory fsync failing after the
// rename latches the journal failed, as a failed append does.
func (j *Journal) Compact(records func(yield func([]byte) bool)) error {
	if j.fail != nil {
		return j.fail
	}
	newGen := j.gen + 1
	// The new generation's (empty) WAL exists durably before the snapshot
	// naming it: whichever side of the rename a crash lands on, the WAL
	// matching the surviving snapshot holds no foreign records.
	newWALPath := filepath.Join(j.dir, walFileName(newGen))
	nw, err := os.OpenFile(newWALPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = durable.Sync(nw); err == nil {
		err = durable.SyncDir(j.dir)
	}
	if err == nil {
		err = durable.WriteAtomic(filepath.Join(j.dir, snapshotName), func(f *os.File) error {
			return writeSnapshot(f, newGen, records)
		})
	}
	if err != nil {
		nw.Close()
		os.Remove(newWALPath)
		return err
	}
	oldWAL, oldGen := j.wal, j.gen
	j.wal, j.gen, j.size, j.recs = nw, newGen, 0, 0
	oldWAL.Close()
	j.met.compactions.Inc()
	j.met.walBytes.Set(0)
	j.met.walRecords.Set(0)
	// The old generation's log goes only once the new snapshot's name is
	// durable.
	if err = durable.SyncDir(j.dir); err == nil {
		os.Remove(filepath.Join(j.dir, walFileName(oldGen)))
		err = durable.SyncDir(j.dir)
	}
	if err != nil {
		return j.latch("compact", err)
	}
	return nil
}

// writeSnapshot streams the header and the framed records into f. The
// record count is known only once the last record is out, so it goes into
// the header last.
func writeSnapshot(f *os.File, gen uint64, records func(yield func([]byte) bool)) (err error) {
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
