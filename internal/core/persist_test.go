package core

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

func testPersist(t testing.TB, dir string) *sitePersistence {
	t.Helper()
	p, torn, err := openPersistence(dir, obs.NewRegistry(), log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatalf("openPersistence: %v", err)
	}
	if torn != 0 {
		t.Fatalf("fresh/clean journal reported %d torn bytes", torn)
	}
	return p
}

// durableSub and durableTables are the durable content of a persistState —
// what a snapshot holds — as plain values reflect.DeepEqual can compare.
type durableSub struct {
	addr    string
	suspect bool
	queue   []FileInfo
}

type durableTables struct {
	files       map[string]FileInfo
	byPath      map[string]string
	subs        map[string]durableSub
	pulls       map[string]FileInfo
	producers   map[string]bool
	scrubCursor string
}

func (p *sitePersistence) tables() durableTables {
	t := durableTables{
		files: p.st.files.byLFN, byPath: p.st.files.byPath, subs: map[string]durableSub{},
		pulls: p.st.pulls, producers: p.st.producers, scrubCursor: p.st.scrubCursor,
	}
	for name, sub := range p.st.subs {
		t.subs[name] = durableSub{sub.addr, sub.suspect, append([]FileInfo(nil), sub.queue...)}
	}
	return t
}

// TestPersistCrashRoundTrip commits one of every record kind, severs the
// journal abruptly (no final snapshot — the crash image), and reopens:
// the replayed tables must equal the pre-crash tables exactly.
func TestPersistCrashRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := testPersist(t, dir)

	p.putFile(FileInfo{LFN: "a", Path: "x/a.db", Size: 10, CRC32: "aa", State: StateDisk})
	p.putFile(FileInfo{LFN: "b", Path: "x/b.db", Size: 20, State: StateTape})
	p.setState("b", StateDisk)
	p.putFile(FileInfo{LFN: "dead", Path: "x/d.db"})
	p.removeFile("dead")
	p.subscribe("anl.gov", "127.0.0.1:1000")
	p.subscribe("fnal.gov", "127.0.0.1:2000")
	p.notifyQueue("anl.gov", []FileInfo{{LFN: "a", Path: "x/a.db", Size: 10}, {LFN: "b", Path: "x/b.db", Size: 20}})
	p.notifyAck(p.st.subs["anl.gov"], 1)
	p.unsubscribe("fnal.gov")
	p.pullQueued(FileInfo{LFN: "p1", Path: "y/p1.db", Size: 5})
	p.pullQueued(FileInfo{LFN: "p2"})
	p.putFile(FileInfo{LFN: "p1", Path: "y/p1.db", Size: 5, State: StateDisk}) // retires p1's intent
	p.removeFile("p1")
	p.close(false) // crash: only fsync'd WAL records survive

	q, torn, err := openPersistence(dir, obs.NewRegistry(), log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q.close(false)
	if torn != 0 {
		t.Fatalf("clean crash reported %d torn bytes", torn)
	}
	if n := len(q.st.files.byLFN); n != 2 {
		t.Fatalf("files = %d, want 2 (%+v)", n, q.st.files.byLFN)
	}
	if fi := q.st.files.byLFN["b"]; fi.State != StateDisk || fi.Size != 20 {
		t.Fatalf("file b replayed wrong: %+v", fi)
	}
	if _, ok := q.st.files.byLFN["dead"]; ok {
		t.Fatal("removed file survived replay")
	}
	if n := len(q.st.subs); n != 1 {
		t.Fatalf("subs = %d, want 1", n)
	}
	sub := q.st.subs["anl.gov"]
	if sub == nil || len(sub.queue) != 1 || sub.queue[0].LFN != "b" {
		t.Fatalf("undelivered queue replayed wrong: %+v", sub)
	}
	pulls := q.st.incompletePulls()
	if len(pulls) != 1 || pulls[0].LFN != "p2" {
		t.Fatalf("incomplete pulls = %+v, want just p2", pulls)
	}
}

// TestPersistGracefulCloseSnapshots verifies that a graceful close folds
// the state into a snapshot, so the next open replays zero WAL records.
func TestPersistGracefulCloseSnapshots(t *testing.T) {
	dir := t.TempDir()
	p := testPersist(t, dir)
	p.putFile(FileInfo{LFN: "a", Path: "a.db", Size: 1})
	p.subscribe("anl.gov", "127.0.0.1:1000")
	p.close(true)

	// The graceful close compacted into generation 1: its WAL must exist
	// and be empty.
	wal, err := os.Stat(filepath.Join(dir, "journal", "wal.1"))
	if err != nil {
		t.Fatalf("graceful close left no generation-1 WAL: %v", err)
	}
	if wal.Size() != 0 {
		t.Fatalf("graceful close left %d WAL bytes uncompacted", wal.Size())
	}
	q, _, err := openPersistence(dir, obs.NewRegistry(), log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q.close(false)
	if len(q.st.files.byLFN) != 1 || len(q.st.subs) != 1 {
		t.Fatalf("snapshot round-trip lost state: %+v", q.tables())
	}
}

// TestPersistTornTailRecovered chops the WAL mid-record, as a crash
// during an append would: reopen must keep every whole record, report the
// torn bytes, and keep accepting new appends.
func TestPersistTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	p := testPersist(t, dir)
	p.putFile(FileInfo{LFN: "whole", Path: "w.db", Size: 9})
	p.putFile(FileInfo{LFN: "torn", Path: "t.db", Size: 9})
	p.close(false)

	walPath := filepath.Join(dir, "journal", "wal.0")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	q, torn, err := openPersistence(dir, obs.NewRegistry(), log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if torn == 0 {
		t.Fatal("torn tail not reported")
	}
	if _, ok := q.st.files.byLFN["whole"]; !ok {
		t.Fatal("whole record lost with the torn tail")
	}
	if _, ok := q.st.files.byLFN["torn"]; ok {
		t.Fatal("torn record replayed")
	}
	q.putFile(FileInfo{LFN: "after", Path: "a.db", Size: 1})
	q.close(false)

	r, torn2, err := openPersistence(dir, obs.NewRegistry(), log.New(io.Discard, "", 0))
	if err != nil || torn2 != 0 {
		t.Fatalf("third open = torn %d, %v", torn2, err)
	}
	defer r.close(false)
	for _, lfn := range []string{"whole", "after"} {
		if _, ok := r.st.files.byLFN[lfn]; !ok {
			t.Fatalf("%s missing after post-truncation append", lfn)
		}
	}
}

// TestPersistPullQueuedNeverDowngrades pins the idempotence contract: a
// bare-LFN admission must not overwrite an earlier record that carries
// the file's path (the path is what ties a .part file to its pull at
// recovery), while a path-carrying record upgrades a bare one.
func TestPersistPullQueuedNeverDowngrades(t *testing.T) {
	p := testPersist(t, t.TempDir())
	defer p.close(false)

	p.pullQueued(FileInfo{LFN: "f", Path: "d/f.db", Size: 7})
	p.pullQueued(FileInfo{LFN: "f"}) // bare admission must not downgrade
	if fi := p.st.pulls["f"]; fi.Path != "d/f.db" || fi.Size != 7 {
		t.Fatalf("path-carrying pull downgraded: %+v", fi)
	}
	p.pullQueued(FileInfo{LFN: "g"})
	p.pullQueued(FileInfo{LFN: "g", Path: "d/g.db"}) // upgrade is allowed
	if fi := p.st.pulls["g"]; fi.Path != "d/g.db" {
		t.Fatalf("bare pull not upgraded: %+v", fi)
	}
	if n := p.j.Records(); n != 3 {
		t.Fatalf("journal holds %d records, want 3 (dups and no-ops elided)", n)
	}
}

// TestPersistLandingRetiresIntent pins the rule apply keeps across two
// tables, that no intent names a cataloged LFN: the landing's recPutFile
// retires the file's intent, in the live tables and in what a crash (the
// WAL) and a graceful close (the snapshot) replay to.
func TestPersistLandingRetiresIntent(t *testing.T) {
	for _, graceful := range []bool{false, true} {
		dir := t.TempDir()
		p := testPersist(t, dir)
		p.pullQueued(FileInfo{LFN: "p1", Path: "y/p1.db", Size: 5})
		p.pullQueued(FileInfo{LFN: "p2"})
		p.putFile(FileInfo{LFN: "p1", Path: "y/p1.db", Size: 5, State: StateDisk})
		check := func(when string, q *sitePersistence) {
			t.Helper()
			if pulls := q.st.incompletePulls(); len(pulls) != 1 || pulls[0].LFN != "p2" {
				t.Errorf("%s: intents %+v, want just p2", when, pulls)
			}
			if _, ok := q.st.files.byLFN["p1"]; !ok {
				t.Errorf("%s: p1 is not cataloged", when)
			}
		}
		check("live", p)
		p.close(graceful)
		q := testPersist(t, dir)
		check(fmt.Sprintf("replayed, graceful close %v", graceful), q)
		q.close(false)
	}
}

// TestPersistOnePathOneEntry: a landing at a path another entry holds
// replaced that entry's bytes, so the entry goes with them; byPath stays
// the inverse of the catalog, and a crash and a graceful close replay to
// the same tables (the snapshot names no owner of a path).
func TestPersistOnePathOneEntry(t *testing.T) {
	for _, graceful := range []bool{false, true} {
		dir := t.TempDir()
		p := testPersist(t, dir)
		p.putFile(FileInfo{LFN: "lfn://cern.ch/runs/a.db", Path: "runs/a.db", Size: 5, State: StateDisk})
		p.putFile(FileInfo{LFN: "lfn://fnal.gov/runs/a.db", Path: "runs/a.db", Size: 7, State: StateDisk})
		want := p.tables()
		if len(want.files) != 1 || want.byPath["runs/a.db"] != "lfn://fnal.gov/runs/a.db" {
			t.Fatalf("two entries at one path: %+v", want)
		}
		p.close(graceful)
		q := testPersist(t, dir)
		if got := q.tables(); !reflect.DeepEqual(got, want) {
			t.Errorf("graceful close %v: replayed to\n%+v\nwant\n%+v", graceful, got, want)
		}
		q.close(false)
	}
}

// TestPersistNoIntentForCatalogedFile: pullQueued for an LFN the catalog
// holds — landed, or still landing — appends nothing and queues nothing,
// bare or with its path.
func TestPersistNoIntentForCatalogedFile(t *testing.T) {
	p := testPersist(t, t.TempDir())
	defer p.close(false)
	p.putFile(FileInfo{LFN: "f", Path: "d/f.db", Size: 7, State: StateDisk})
	n := p.j.Records()
	for _, fi := range []FileInfo{{LFN: "f"}, {LFN: "f", Path: "d/f.db", Size: 7}} {
		if err := p.pullQueued(fi); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.j.Records(); got != n || len(p.st.pulls) != 0 {
		t.Fatalf("intents for a cataloged file: %d records appended, intents %+v", got-n, p.st.pulls)
	}
}

// TestPersistOlderJournalIntentAfterLanding: an older build could journal
// an intent for a file it already held (a pull admitted for a cataloged
// LFN), after the file's recPutFile. Replay ignores it, so the restarted
// site owes no pull for that file.
func TestPersistOlderJournalIntentAfterLanding(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fi := FileInfo{LFN: "f", Path: "d/f.db", Size: 7, State: StateDisk}
	for _, rec := range []recWriter{putFileRecord(fi), pullQueuedRecord(FileInfo{LFN: "f"}), pullQueuedRecord(FileInfo{LFN: "g"})} {
		var e rpc.Encoder
		rec(&e)
		if err := j.Append(e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	p := testPersist(t, dir)
	defer p.close(false)
	if pulls := p.st.incompletePulls(); len(pulls) != 1 || pulls[0].LFN != "g" {
		t.Fatalf("replayed intents %+v, want just g", pulls)
	}
}

// TestPersistSubscriberTransitions pins the subscriber delta semantics:
// ack clamps to the queue length, drop marks suspect and clears the
// queue, and re-subscribing heals suspicion without losing the queue.
func TestPersistSubscriberTransitions(t *testing.T) {
	p := testPersist(t, t.TempDir())
	defer p.close(false)

	p.subscribe("anl.gov", "127.0.0.1:1000")
	p.notifyQueue("anl.gov", []FileInfo{{LFN: "a"}, {LFN: "b"}})
	p.notifyAck(p.st.subs["anl.gov"], 5) // over-ack clamps instead of corrupting
	if q := p.st.subs["anl.gov"].queue; len(q) != 0 {
		t.Fatalf("over-ack left queue %+v", q)
	}

	p.notifyQueue("anl.gov", []FileInfo{{LFN: "c"}})
	p.subscribe("anl.gov", "127.0.0.1:3000") // re-subscribe from a new address
	sub := p.st.subs["anl.gov"]
	if sub.addr != "127.0.0.1:3000" || len(sub.queue) != 1 {
		t.Fatalf("re-subscribe lost queue or address: %+v", sub)
	}

	p.notifyDrop(p.st.subs["anl.gov"])
	if sub := p.st.subs["anl.gov"]; !sub.suspect || len(sub.queue) != 0 {
		t.Fatalf("drop did not mark suspect and clear: %+v", sub)
	}
	p.subscribe("anl.gov", "127.0.0.1:3000")
	if sub := p.st.subs["anl.gov"]; sub.suspect {
		t.Fatal("re-subscribe did not heal suspicion")
	}
}

// TestPersistAppendFailurePropagates pins the journal-before-ack
// contract's failure half: when the WAL cannot take the record, the hook
// must return the error (so the mutating RPC fails) instead of
// acknowledging a mutation the disk does not hold — and the tables must
// not change, staying consistent with disk.
func TestPersistAppendFailurePropagates(t *testing.T) {
	p := testPersist(t, t.TempDir())
	if err := p.putFile(FileInfo{LFN: "ok", Path: "ok.db"}); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	p.j.Close() // sever the WAL underneath: every later append must fail loudly
	if err := p.putFile(FileInfo{LFN: "lost", Path: "lost.db"}); err == nil {
		t.Fatal("putFile on a severed journal acked")
	}
	if err := p.subscribe("anl.gov", "127.0.0.1:1000"); err == nil {
		t.Fatal("subscribe on a severed journal acked")
	}
	if err := p.pullQueued(FileInfo{LFN: "pull"}); err == nil {
		t.Fatal("pullQueued on a severed journal acked")
	}
	if _, ok := p.st.files.byLFN["lost"]; ok {
		t.Fatal("a record the WAL rejected was applied")
	}
	if len(p.st.subs) != 0 || len(p.st.pulls) != 0 {
		t.Fatalf("tables diverged from disk: %+v", p.tables())
	}
}

// TestPersistSameTablesWithoutJournal: a site without a StateDir runs the
// same transitions on the same tables with the append skipped, so the
// golden crash sequence — every record kind, and the no-ops — leaves it
// exactly the tables it leaves a journaled site, and what a replay of that
// site's journal rebuilds.
func TestPersistSameTablesWithoutJournal(t *testing.T) {
	dir := t.TempDir()
	var got []durableTables
	for _, tc := range []struct{ name, stateDir string }{
		{"journaled", dir},
		{"no state dir", ""},
		{"replayed", dir},
	} {
		p := testPersist(t, tc.stateDir)
		if tc.name != "replayed" {
			goldenCrashSequence(p)
		}
		if (p.j != nil) != (tc.stateDir != "") {
			t.Fatalf("%s: journal open = %v", tc.name, p.j != nil)
		}
		got = append(got, p.tables())
		// Kill closes the persistence before it stops the servers, so a
		// handler can still record after it: that must be refused, not
		// acked, or a notify handler acks a pull that is on no disk.
		p.close(false)
		if err := p.putFile(FileInfo{LFN: "late", Path: "late.db"}); err == nil || p.st.files.has("late") {
			t.Fatalf("%s: a record after close = %v, applied %v; want refused", tc.name, err, p.st.files.has("late"))
		}
	}
	if len(got[0].files) != 2 || len(got[0].subs) != 1 || len(got[0].pulls) != 1 || len(got[0].producers) != 1 {
		t.Fatalf("golden sequence left %+v", got[0])
	}
	for i, name := range []string{"no state dir", "replayed"} {
		if !reflect.DeepEqual(got[i+1], got[0]) {
			t.Errorf("%s:\n%+v\nwant the journaled site's tables\n%+v", name, got[i+1], got[0])
		}
	}
}

// TestPersistProducersAndScrubCursor covers the self-healing records: the
// producer set and the mid-pass scrub cursor must survive both a crash
// (WAL replay) and a graceful close (v2 snapshot).
func TestPersistProducersAndScrubCursor(t *testing.T) {
	dir := t.TempDir()
	p := testPersist(t, dir)
	p.producerAdd("127.0.0.1:1000")
	p.producerAdd("127.0.0.1:2000")
	p.producerRemove("127.0.0.1:1000")
	p.scrubCursor("lfn://cern.ch/run1/b.db")
	p.close(false) // crash: replay from the WAL

	q, torn, err := openPersistence(dir, obs.NewRegistry(), log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if torn != 0 {
		t.Fatalf("clean crash reported %d torn bytes", torn)
	}
	if got := q.st.producers; len(got) != 1 || !got["127.0.0.1:2000"] {
		t.Fatalf("replayed producers = %v, want [127.0.0.1:2000]", got)
	}
	if got := q.st.scrubCursor; got != "lfn://cern.ch/run1/b.db" {
		t.Fatalf("replayed scrub cursor = %q", got)
	}
	q.close(true) // graceful: fold into a snapshot

	r, _, err := openPersistence(dir, obs.NewRegistry(), log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatalf("reopen after snapshot: %v", err)
	}
	defer r.close(false)
	if got := r.st.producers; len(got) != 1 || !got["127.0.0.1:2000"] {
		t.Fatalf("snapshotted producers = %v, want [127.0.0.1:2000]", got)
	}
	if got := r.st.scrubCursor; got != "lfn://cern.ch/run1/b.db" {
		t.Fatalf("snapshotted scrub cursor = %q", got)
	}
	// Clearing the cursor at pass end must stick too.
	r.scrubCursor("")
	if got := r.st.scrubCursor; got != "" {
		t.Fatalf("cleared scrub cursor = %q", got)
	}
}

// TestPersistSnapshotReplaysTables: after any sequence of hooks, a graceful
// close (the snapshot: the records that rebuild the tables) and a reopen
// give exactly the tables the sequence left, and a crash image (the WAL
// alone) gives the same. The sequences are seeded 0..59, and at least one
// must leave a suspect subscriber that still has notices queued, the case
// the snapshot's record order exists for.
func TestPersistSnapshotReplaysTables(t *testing.T) {
	lfns := []string{"lfn://a", "lfn://b", "lfn://c", "lfn://d"}
	names := []string{"anl.gov", "fnal.gov"}
	suspectWithQueue := false
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		file := func() FileInfo {
			lfn := lfns[rng.Intn(len(lfns))]
			// A path is its file's own, so byPath has one possible content.
			return FileInfo{LFN: lfn, Path: fmt.Sprintf("%s/v%d", lfn, rng.Intn(2)), Size: rng.Int63n(100),
				CRC32: fmt.Sprintf("%08x", rng.Uint32()), FileType: "flat", State: []FileState{StateDisk, StateTape}[rng.Intn(2)]}
		}
		var tables [2]durableTables
		for i, graceful := range []bool{true, false} {
			dir := t.TempDir()
			p := testPersist(t, dir)
			rng.Seed(seed)
			for n := 0; n < 40; n++ {
				name := names[rng.Intn(len(names))]
				addr := fmt.Sprintf("127.0.0.1:%d", 1000+rng.Intn(2))
				switch rng.Intn(14) {
				case 0, 1, 11:
					p.putFile(file())
				case 2:
					p.removeFile(file().LFN)
				case 3:
					p.setState(file().LFN, file().State)
				case 4:
					p.subscribe(name, addr)
				case 5:
					p.unsubscribe(name)
				case 6, 7:
					p.notifyQueue(name, []FileInfo{file(), file()})
				case 8:
					if sub := p.st.subs[name]; sub != nil {
						p.notifyAck(sub, rng.Intn(3))
					}
				case 9:
					if sub := p.st.subs[name]; sub != nil {
						p.notifyDrop(sub)
					}
				case 10:
					fi := file()
					if rng.Intn(2) == 0 {
						fi = FileInfo{LFN: fi.LFN}
					}
					p.pullQueued(fi)
				case 12:
					if rng.Intn(2) == 0 {
						p.producerAdd(addr)
					} else {
						p.producerRemove(addr)
					}
				case 13:
					p.scrubCursor([]string{"", file().LFN}[rng.Intn(2)])
				}
			}
			tables[i] = p.tables()
			for lfn := range tables[i].pulls {
				if _, ok := tables[i].files[lfn]; ok {
					t.Fatalf("seed %d: the intent for %s outlived its landing", seed, lfn)
				}
			}
			p.close(graceful)
			q := testPersist(t, dir)
			if got := q.tables(); !reflect.DeepEqual(got, tables[i]) {
				t.Fatalf("seed %d, graceful close %v: reopened to\n%+v\nwant\n%+v", seed, graceful, got, tables[i])
			}
			q.close(false)
		}
		if !reflect.DeepEqual(tables[0], tables[1]) {
			t.Fatalf("seed %d: one sequence left two different tables", seed)
		}
		for _, sub := range tables[0].subs {
			suspectWithQueue = suspectWithQueue || sub.suspect && len(sub.queue) > 0
		}
	}
	if !suspectWithQueue {
		t.Fatal("no sequence left a suspect subscriber with queued notices")
	}
}

// TestPersistRefusesOlderSnapshot: testdata/v2-snapshot is a state
// directory an older build closed gracefully, so its journal holds that
// build's snapshot (version 3 of the site's own table dump, behind the
// journal's v2 header). It is refused with an error that names the
// directory, not replayed as an empty site.
func TestPersistRefusesOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"snapshot", "wal.1"} {
		b, err := os.ReadFile(filepath.Join("testdata", "v2-snapshot", "journal", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := openPersistence(dir, obs.NewRegistry(), log.New(io.Discard, "", 0))
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("opening an older build's snapshot = %v; want a refusal naming %s", err, dir)
	}
}
