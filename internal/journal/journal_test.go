package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gdmp/internal/obs"
)

func openT(t testing.TB, dir string) (*Journal, Recovery) {
	t.Helper()
	j, rec, err := Open(dir, Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

// seq pushes records one at a time, the way Compact takes them.
func seq(records ...string) func(yield func([]byte) bool) {
	return func(yield func([]byte) bool) {
		for _, r := range records {
			if !yield([]byte(r)) {
				return
			}
		}
	}
}

// replayed renders recovered records for comparison.
func replayed(rec Recovery) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, dir)
	if len(rec.Records) != 0 {
		t.Fatalf("fresh journal recovered state: %+v", rec)
	}
	var want [][]byte
	for i := 0; i < 25; i++ {
		r := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, r)
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Empty records must survive too.
	want = append(want, []byte{})
	if err := j.Append(nil); err != nil {
		t.Fatalf("Append empty: %v", err)
	}
	j.Close()

	j2, rec := openT(t, dir)
	defer j2.Close()
	if rec.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rec.TornBytes)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), len(want))
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, r, want[i])
		}
	}
	// Appends after a replay continue the same log.
	if err := j2.Append([]byte("after-reopen")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	j2.Close()
	_, rec = openT(t, dir)
	if got := len(rec.Records); got != len(want)+1 {
		t.Fatalf("after reopen append: %d records, want %d", got, len(want)+1)
	}
}

func TestCompactReplacesSnapshotAndTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(seq("state-a", "", "state-b")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if j.Records() != 0 {
		t.Fatalf("Records() = %d after compaction", j.Records())
	}
	if err := j.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, rec := openT(t, dir)
	defer j2.Close()
	// The snapshot's records come first, then the WAL's.
	if got, want := replayed(rec), []string{"state-a", "", "state-b", "post-compact"}; !slices.Equal(got, want) {
		t.Fatalf("records after compaction = %q, want %q", got, want)
	}
	if j2.Records() != 1 {
		t.Fatalf("Records() = %d; it counts the WAL's records only", j2.Records())
	}

	// A compaction to no records at all leaves an empty state.
	if err := j2.Compact(seq()); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, rec := openT(t, dir)
	defer j3.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("empty snapshot replayed %q", replayed(rec))
	}
}

// tornCase appends good records, then mangles the tail; replay must
// recover every intact record, quarantine the rest, and leave the log
// appendable.
func tornCase(t *testing.T, mangle func(t *testing.T, walPath string)) {
	t.Helper()
	dir := t.TempDir()
	j, _ := openT(t, dir)
	for i := 0; i < 5; i++ {
		if err := j.Append([]byte(fmt.Sprintf("good-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	mangle(t, filepath.Join(dir, walFileName(0)))

	j2, rec := openT(t, dir)
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want the 5 intact ones", len(rec.Records))
	}
	for i, r := range rec.Records {
		if string(r) != fmt.Sprintf("good-%d", i) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
	if rec.TornBytes == 0 {
		t.Fatalf("torn tail not reported")
	}
	if _, err := os.Stat(filepath.Join(dir, tornName)); err != nil {
		t.Fatalf("torn tail not quarantined: %v", err)
	}
	// The truncated log must accept appends and replay cleanly again.
	if err := j2.Append([]byte("after-torn")); err != nil {
		t.Fatalf("Append after torn recovery: %v", err)
	}
	j2.Close()
	_, rec = openT(t, dir)
	if rec.TornBytes != 0 {
		t.Fatalf("second open still torn: %d bytes", rec.TornBytes)
	}
	if len(rec.Records) != 6 || string(rec.Records[5]) != "after-torn" {
		t.Fatalf("post-recovery log replayed %q", rec.Records)
	}
}

func TestTornTailTruncatedMidPayload(t *testing.T) {
	tornCase(t, func(t *testing.T, wal string) {
		// A crash mid-append: a full header plus half a payload.
		f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0, 0, 0, 200, 0xde, 0xad, 0xbe, 0xef, 'h', 'a', 'l', 'f'})
		f.Close()
	})
}

func TestTornTailShortHeader(t *testing.T) {
	tornCase(t, func(t *testing.T, wal string) {
		f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0, 0, 0}) // 3 of 8 header bytes
		f.Close()
	})
}

func TestTornTailCorruptChecksum(t *testing.T) {
	tornCase(t, func(t *testing.T, wal string) {
		// Append one fully-framed record, then flip a payload bit: a
		// checksum mismatch must quarantine it and everything after.
		f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0, 0, 0, 4, 0x11, 0x22, 0x33, 0x44, 'j', 'u', 'n', 'k'})
		f.Close()
	})
}

func TestCorruptMiddleRecordQuarantinesSuffix(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	for i := 0; i < 5; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	wal := filepath.Join(dir, walFileName(0))
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the third record (records are 8+5 bytes).
	b[2*13+8] ^= 0xff
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, dir)
	defer j2.Close()
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the corruption", len(rec.Records))
	}
	if rec.TornBytes != int64(3*13) {
		t.Fatalf("torn bytes = %d, want %d", rec.TornBytes, 3*13)
	}
}

// snapshotFile compacts three records into a fresh journal and returns
// the directory and the snapshot's bytes.
func snapshotFile(t testing.TB) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	j, _ := openT(t, dir)
	if err := j.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(seq("snap-1", "snap-2", "snap-3")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	b, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, b
}

// TestCorruptSnapshotIsFatal: a snapshot is replaced atomically, so any
// damage — a flipped byte, a frame cut short, whole records missing from
// the end (a cut at a frame boundary, which every frame's own checksum
// passes) — is refused rather than replayed as a smaller state.
func TestCorruptSnapshotIsFatal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }},
		{"cut mid-frame", func(b []byte) []byte { return b[:len(b)-2] }},
		{"cut at a frame boundary", func(b []byte) []byte { return b[:len(b)-(8+len("snap-3"))] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"bad header", func(b []byte) []byte { return append([]byte("not-a-snapshot\n"), b...) }},
		{"header only", func(b []byte) []byte { return b[:len(snapshotHeader)] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, b := snapshotFile(t)
			if err := os.WriteFile(filepath.Join(dir, snapshotName), tc.damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := Open(dir, Options{Registry: obs.NewRegistry()})
			if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), dir) {
				t.Fatalf("Open = %v; want ErrCorruptSnapshot naming %s", err, dir)
			}
		})
	}
}

// TestOlderSnapshotRefused: a snapshot an older build wrote (v2, one
// checksummed payload in the caller's own layout) is refused with an
// error that names the directory, not misread as records.
func TestOlderSnapshotRefused(t *testing.T) {
	dir, _ := snapshotFile(t)
	payload := []byte("some state")
	b := binary.BigEndian.AppendUint64([]byte("gdmp-journal-snapshot v2\n"), 1)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(filepath.Join(dir, snapshotName), append(b, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{Registry: obs.NewRegistry()})
	if !errors.Is(err, errOlderSnapshot) || !strings.Contains(err.Error(), dir) {
		t.Fatalf("Open = %v; want the older-build refusal naming %s", err, dir)
	}
}

// FuzzSnapshot: any snapshot file parses to records or an error, never a
// panic, and records are returned only when their frames, and the count
// the header claims, account for every byte.
func FuzzSnapshot(f *testing.F) {
	_, b := snapshotFile(f)
	f.Add(b)
	f.Add(b[:len(b)-1])
	f.Add(b[:len(snapshotHeader)+12])
	f.Add([]byte("gdmp-journal-snapshot v2\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		records, _, err := parseSnapshot(b)
		if err != nil {
			return
		}
		n := len(snapshotHeader) + 12
		for _, r := range records {
			n += 8 + len(r)
		}
		if n != len(b) || binary.BigEndian.Uint32(b[len(snapshotHeader)+8:]) != uint32(len(records)) {
			t.Fatalf("accepted %d records spanning %d of %d bytes", len(records), n, len(b))
		}
	})
}

// TestStaleWALNotReplayedAcrossGenerations reconstructs the disk image of
// a crash between the snapshot rename and the old WAL's removal: the
// pre-compaction log, whose records the new snapshot already subsumes,
// reappears next to it. Open must replay none of those records — deltas
// double-applied onto the snapshot would corrupt the state — and sweep
// the stale file.
func TestStaleWALNotReplayedAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf("delta-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	preCompaction, err := os.ReadFile(filepath.Join(dir, walFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(seq("state-with-deltas-applied")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	j.Close()
	// Resurrect the generation-0 log, as the crash would have left it.
	if err := os.WriteFile(filepath.Join(dir, walFileName(0)), preCompaction, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, dir)
	defer j2.Close()
	if got := replayed(rec); !slices.Equal(got, []string{"state-with-deltas-applied"}) {
		t.Fatalf("replayed %q; want the snapshot's one record, none of the stale WAL's", got)
	}
	if _, err := os.Stat(filepath.Join(dir, walFileName(0))); !os.IsNotExist(err) {
		t.Fatalf("stale wal.0 not swept: %v", err)
	}
}

// TestOrphanNextGenWALIgnored covers the other crash window: compaction
// died after creating wal.<gen+1> but before the snapshot rename. The old
// snapshot and WAL are still the truth; the orphan must not shadow them.
func TestOrphanNextGenWALIgnored(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	if err := j.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.WriteFile(filepath.Join(dir, walFileName(1)), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, dir)
	defer j2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0]) != "kept" {
		t.Fatalf("records = %q, want the generation-0 record", rec.Records)
	}
	if _, err := os.Stat(filepath.Join(dir, walFileName(1))); !os.IsNotExist(err) {
		t.Fatalf("orphan wal.1 not swept: %v", err)
	}
}

// TestAppendFailureLatches pins the sticky-failure contract: once a write
// to the WAL errors, every later Append and Compact must keep failing
// rather than append past a possible partial frame.
func TestAppendFailureLatches(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	if err := j.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	j.wal.Close() // sever the log underneath the journal
	if err := j.Append([]byte("lost")); err == nil {
		t.Fatal("append to a severed WAL succeeded")
	}
	if err := j.Append([]byte("still-lost")); err == nil {
		t.Fatal("append after a failed append succeeded")
	}
	if err := j.Compact(seq("snap")); err == nil {
		t.Fatal("compaction on a failed journal succeeded")
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	defer j.Close()
	if err := j.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}
