package core

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gdmp/internal/obs"
)

// goldenCrashSequence commits every record kind at least once, including
// the idempotent no-ops that must leave no record.
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
	p.paritySet(a.LFN, "deadbeef")
	p.paritySet(a.LFN, "deadbeef") // unchanged, no record
	p.paritySet(b.LFN, "feedface")
	p.parityDrop(b.LFN)
	p.parityDrop(b.LFN) // already gone, no record
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
	p.paritySet(b.LFN, "feedface")
	p.paritySet(a.LFN, "deadbeef")
}

// TestJournalBytesMatchParent pins the on-disk format. The state
// directories under testdata/parent-journal were written by the two
// sequences above: a crash image (WAL only, all fifteen record tags),
// written at 9fd26eb, the parent of the commit that put every hook behind
// sitePersistence.record; and a graceful close (a snapshot), re-pinned by
// the child of 6eec715, the flag day on which a snapshot became the run of
// records that rebuilds the tables (an older build's snapshot is refused:
// TestPersistRefusesOlderSnapshot). Running the same sequences here must
// produce the same files byte for byte — so a journal written on either
// side replays on the other — and opening the pinned directories must
// reconstruct the tables the sequences leave behind.
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
			golden := filepath.Join("testdata", "parent-journal", tc.name)
			mine := t.TempDir()
			p := testPersist(t, mine)
			tc.sequence(p)
			p.close(tc.graceful)

			theirs := t.TempDir() // opening a journal may rewrite it: work on a copy
			names, err := filepath.Glob(filepath.Join(golden, "journal", "*"))
			if err != nil || len(names) == 0 {
				t.Fatalf("golden journal %s: %v, %d files", golden, err, len(names))
			}
			if err := os.MkdirAll(filepath.Join(theirs, "journal"), 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				want, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(mine, "journal", filepath.Base(name)))
				if err != nil {
					t.Fatalf("the parent wrote %s, this commit did not: %v", filepath.Base(name), err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from the parent's bytes (%d vs %d bytes)", filepath.Base(name), len(got), len(want))
				}
				if err := os.WriteFile(filepath.Join(theirs, "journal", filepath.Base(name)), want, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if written, _ := filepath.Glob(filepath.Join(mine, "journal", "*")); len(written) != len(names) {
				t.Errorf("this commit wrote %v, the parent %v", written, names)
			}

			q, torn, err := openPersistence(theirs, obs.NewRegistry(), log.New(io.Discard, "", 0))
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
