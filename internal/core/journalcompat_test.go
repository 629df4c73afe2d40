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
	p.pullQueued(FileInfo{LFN: "lfn://anl.gov/p1", Path: "y/p1.db", Size: 5})
	p.pullQueued(FileInfo{LFN: "lfn://anl.gov/p1"}) // no downgrade, no record
	p.pullQueued(FileInfo{LFN: "lfn://anl.gov/p2"})
	p.pullDone("lfn://anl.gov/p1")
	p.pullDone("lfn://anl.gov/p1") // already done, no record
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

// TestJournalBytesMatchParent pins the on-disk format. The state
// directories under testdata/parent-journal were written by an older
// build running the two sequences above, when each still ended in parity
// sidecar records: a crash image (WAL only, all fifteen record tags,
// retired recParitySet and recParityDrop included), written at 9fd26eb,
// the parent of the commit that put every hook behind
// sitePersistence.record; and a graceful close (a snapshot) written by the
// child of 6eec715, the flag day on which a snapshot became the run of
// records that rebuilds the tables (an older build's snapshot is refused:
// TestPersistRefusesOlderSnapshot). Both are replay-only inputs now: each
// must open here to the tables this build's sequence leaves. The bytes are
// pinned too. The crash WAL written here is the parent's with its trailing
// parity records cut, record for record and byte for byte, so the parent
// replays it; the graceful snapshot is pinned in testdata/journal, written
// by the commit that retired the parity records.
func TestJournalBytesMatchParent(t *testing.T) {
	retired := func(r []byte) bool { return r[0] == recParitySet || r[0] == recParityDrop }
	for _, tc := range []struct {
		name     string
		sequence func(*sitePersistence)
		graceful bool
	}{
		{"crash", goldenCrashSequence, false},
		{"graceful", goldenGracefulSequence, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := filepath.Join("testdata", "parent-journal", tc.name)
			mine := t.TempDir()
			p := testPersist(t, mine)
			tc.sequence(p)
			p.close(tc.graceful)

			theirs := journalRecords(t, parent)
			if !slices.ContainsFunc(theirs, retired) {
				t.Fatalf("the parent's %s image holds no parity record", tc.name)
			}
			if want, got := slices.DeleteFunc(slices.Clone(theirs), retired), journalRecords(t, mine); !reflect.DeepEqual(got, want) {
				t.Errorf("this commit's records are not the parent's without its parity records:\n%x\nwant\n%x", got, want)
			}
			// The bytes: the crash WAL is a strict prefix of the parent's, the
			// graceful image equals its pin.
			pinned := filepath.Join("testdata", "journal", tc.name)
			if !tc.graceful {
				pinned = parent
			}
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
				same := bytes.Equal(got, want)
				if !tc.graceful {
					same = len(got) < len(want) && bytes.HasPrefix(want, got)
				}
				if !same {
					t.Errorf("%s differs from the pinned bytes (%d vs %d bytes)", filepath.Base(name), len(got), len(want))
				}
			}

			q, torn, err := openPersistence(copyJournal(t, parent), obs.NewRegistry(), log.New(io.Discard, "", 0))
			if err != nil || torn != 0 {
				t.Fatalf("replaying the parent's journal: %v, %d torn bytes", err, torn)
			}
			defer q.close(false)
			if !reflect.DeepEqual(q.tables(), p.tables()) {
				t.Errorf("parent's journal replays to\n%+v\nwant\n%+v", q.tables(), p.tables())
			}
		})
	}
}
