package core

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gdmp/internal/journal"
	"gdmp/internal/obs"
)

// goldenCrashSequence commits every record kind this build writes at least
// once, including the idempotent no-ops that must leave no record.
func goldenCrashSequence(p *sitePersistence) {
	a := FileInfo{LFN: "lfn://cern.ch/run1/a.db", Path: "run1/a.db", Size: 10, CRC32: "0000000a", FileType: "flat", State: StateDisk}
	b := FileInfo{LFN: "lfn://cern.ch/run1/b.db", Path: "run1/b.db", Size: 20, CRC32: "0000000b", FileType: "objectivity", State: StateTape}
	p.putFile(a)
	p.putFile(b)
	p.setState(b.LFN, StateDisk)
	p.setState(b.LFN, StateDisk) // unchanged, no record
	p.putFile(FileInfo{LFN: "lfn://cern.ch/dead", Path: "dead.db"})
	p.removeFile("lfn://cern.ch/dead")
	p.subscribe("anl.gov", "127.0.0.1:1000")
	p.subscribe("fnal.gov", "127.0.0.1:2000")
	p.notifyQueue("anl.gov", []FileInfo{a, b})
	p.notifyAck(p.st.subs["anl.gov"], 1)
	p.notifyQueue("fnal.gov", []FileInfo{a})
	p.notifyDrop(p.st.subs["fnal.gov"])
	p.unsubscribe("fnal.gov")
	p1 := FileInfo{LFN: "lfn://anl.gov/p1", Path: "y/p1.db", Size: 5, CRC32: "00000005", FileType: "flat", State: StateDisk}
	p.pullQueued(FileInfo{LFN: p1.LFN, Path: p1.Path, Size: p1.Size})
	p.pullQueued(FileInfo{LFN: p1.LFN}) // no downgrade, no record
	p.pullQueued(FileInfo{LFN: "lfn://anl.gov/p2"})
	p.putFile(p1)                       // the landing retires p1's intent
	p.pullQueued(FileInfo{LFN: p1.LFN}) // cataloged, no record
	p.removeFile(p1.LFN)
	p.producerAdd("127.0.0.1:3000")
	p.producerAdd("127.0.0.1:3000") // already there, no record
	p.producerAdd("127.0.0.1:4000")
	p.producerRemove("127.0.0.1:4000")
	p.scrubCursor(a.LFN)
	p.scrubCursor(a.LFN) // unchanged, no record
}

// goldenGracefulSequence leaves at least two entries in every table, and
// a suspect subscriber that still has a notice queued, so the snapshot a
// graceful close writes shows the order of its records.
func goldenGracefulSequence(p *sitePersistence) {
	a := FileInfo{LFN: "lfn://cern.ch/run1/a.db", Path: "run1/a.db", Size: 10, CRC32: "0000000a", FileType: "flat", State: StateDisk}
	b := FileInfo{LFN: "lfn://cern.ch/run1/b.db", Path: "run1/b.db", Size: 20, CRC32: "0000000b", FileType: "objectivity", State: StateTape}
	p.putFile(b)
	p.putFile(a)
	p.subscribe("fnal.gov", "127.0.0.1:2000")
	p.subscribe("anl.gov", "127.0.0.1:1000")
	p.notifyQueue("anl.gov", []FileInfo{a, b})
	p.notifyQueue("fnal.gov", []FileInfo{a})
	p.notifyDrop(p.st.subs["fnal.gov"])
	p.notifyQueue("fnal.gov", []FileInfo{b})
	p.pullQueued(FileInfo{LFN: "lfn://anl.gov/p3"})
	p.pullQueued(FileInfo{LFN: "lfn://anl.gov/p2", Path: "y/p2.db", Size: 7})
	p.producerAdd("127.0.0.1:4000")
	p.producerAdd("127.0.0.1:3000")
	p.scrubCursor(a.LFN)
}

// copyJournal copies the journal of the state directory src into a fresh
// one and returns it: opening a journal may rewrite it.
func copyJournal(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "journal", "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("journal %s: %v, %d files", src, err, len(names))
	}
	if err := os.MkdirAll(filepath.Join(dst, "journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, "journal", filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// journalRecords returns the records the journal of the state directory
// dir replays, snapshot first, without applying them.
func journalRecords(t testing.TB, dir string) [][]byte {
	t.Helper()
	var recs [][]byte
	j, _, err := journal.Open(filepath.Join(copyJournal(t, dir), "journal"), journal.Options{Registry: obs.NewRegistry(), Replay: func(r []byte) error {
		recs = append(recs, slices.Clone(r))
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	return recs
}

// parentTables are the tables the older build's images under
// testdata/parent-journal replay to, written out: the crash image's WAL
// and the graceful image's snapshot are replay-only inputs, and a change to
// what they open to is a change to how an older journal replays.
func parentTables(image string) durableTables {
	a := FileInfo{LFN: "lfn://cern.ch/run1/a.db", Path: "run1/a.db", Size: 10, CRC32: "0000000a", FileType: "flat", State: StateDisk}
	b := FileInfo{LFN: "lfn://cern.ch/run1/b.db", Path: "run1/b.db", Size: 20, CRC32: "0000000b", FileType: "objectivity", State: StateTape}
	t := durableTables{
		files:  map[string]FileInfo{a.LFN: a, b.LFN: b},
		byPath: map[string]string{a.Path: a.LFN, b.Path: b.LFN},
		subs: map[string]durableSub{
			"anl.gov":  {addr: "127.0.0.1:1000", queue: []FileInfo{a, b}},
			"fnal.gov": {addr: "127.0.0.1:2000", suspect: true, queue: []FileInfo{b}},
		},
		pulls: map[string]FileInfo{
			"lfn://anl.gov/p2": {LFN: "lfn://anl.gov/p2", Path: "y/p2.db", Size: 7},
			"lfn://anl.gov/p3": {LFN: "lfn://anl.gov/p3"},
		},
		producers:   map[string]bool{"127.0.0.1:3000": true, "127.0.0.1:4000": true},
		scrubCursor: a.LFN,
	}
	if image == "crash" {
		onDisk := b
		onDisk.State = StateDisk
		t.files[b.LFN] = onDisk
		t.subs = map[string]durableSub{"anl.gov": {addr: "127.0.0.1:1000", queue: []FileInfo{b}}}
		t.pulls = map[string]FileInfo{"lfn://anl.gov/p2": {LFN: "lfn://anl.gov/p2"}}
		t.producers = map[string]bool{"127.0.0.1:3000": true}
	}
	return t
}

// TestJournalBytesMatchParent pins the on-disk format. The state
// directories under testdata/journal hold what this build writes for the
// two sequences above, byte for byte: the crash image (a WAL of every
// record kind it writes) and the graceful close (a snapshot). Each must
// replay to the tables its sequence left. The state directories under
// testdata/parent-journal were written by an older build running older
// versions of the same sequences: a crash image with all fifteen record
// tags, the retired recPullDone, recParitySet and recParityDrop included,
// written at 9fd26eb, the parent of the commit that put every hook behind
// sitePersistence.record; and a graceful close written by the child of
// 6eec715, the flag day on which a snapshot became the run of records that
// rebuilds the tables (an older build's snapshot is refused:
// TestPersistRefusesOlderSnapshot). Both are replay-only inputs now, and
// each must open to the tables it always opened to (parentTables).
func TestJournalBytesMatchParent(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sequence func(*sitePersistence)
		graceful bool
	}{
		{"crash", goldenCrashSequence, false},
		{"graceful", goldenGracefulSequence, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mine := t.TempDir()
			p := testPersist(t, mine)
			tc.sequence(p)
			p.close(tc.graceful)

			pinned := filepath.Join("testdata", "journal", tc.name)
			names, _ := filepath.Glob(filepath.Join(pinned, "journal", "*"))
			if written, _ := filepath.Glob(filepath.Join(mine, "journal", "*")); len(written) != len(names) {
				t.Errorf("this commit wrote %v, the pin holds %v", written, names)
			}
			for _, name := range names {
				want, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(mine, "journal", filepath.Base(name)))
				if err != nil {
					t.Fatalf("the pin holds %s, this commit did not write it: %v", filepath.Base(name), err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from the pinned bytes (%d vs %d bytes)", filepath.Base(name), len(got), len(want))
				}
			}

			for _, img := range []struct {
				dir  string
				want durableTables
			}{
				{pinned, p.tables()},
				{filepath.Join("testdata", "parent-journal", tc.name), parentTables(tc.name)},
			} {
				q, torn, err := openPersistence(copyJournal(t, img.dir), obs.NewRegistry(), log.New(io.Discard, "", 0))
				if err != nil || torn != 0 {
					t.Fatalf("replaying %s: %v, %d torn bytes", img.dir, err, torn)
				}
				if got := q.tables(); !reflect.DeepEqual(got, img.want) {
					t.Errorf("%s replays to\n%+v\nwant\n%+v", img.dir, got, img.want)
				}
				q.close(false)
			}
		})
	}
}
