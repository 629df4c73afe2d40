package replica

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

func openTestStore(t *testing.T, dir string, shards int) (*Catalog, *Store) {
	t.Helper()
	c := New(Options{Shards: shards, Registry: obs.NewRegistry()})
	st, err := OpenStore(dir, c, StoreOptions{Registry: obs.NewRegistry(), NoSync: true})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return c, st
}

// reopenFromSnapshot closes st and recovers a fresh catalog of the given
// shard count from dir. Close compacts, so the WAL the reopen replays is
// empty and the journal snapshot alone carries the state.
func reopenFromSnapshot(t *testing.T, dir string, st *Store, shards int) *Catalog {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c, st2 := openTestStore(t, dir, shards)
	t.Cleanup(func() { st2.Close() })
	if n := st2.Records(); n != 0 {
		t.Fatalf("reopen replayed %d WAL records; the snapshot was not the only source", n)
	}
	return c
}

func TestStoreRecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	c, st := openTestStore(t, dir, 8)
	mustRegister(t, c, "lfn://cern.ch/a", map[string]string{AttrSize: "10"})
	mustRegister(t, c, "lfn://cern.ch/b", nil)
	if err := c.AddReplica("lfn://cern.ch/a", "gridftp://cern:2811/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCollection("runs"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddToCollection("runs", "lfn://cern.ch/a"); err != nil {
		t.Fatal(err)
	}
	// Close the WAL without compacting: recovery must come from records.
	st.mu.Lock()
	st.j.Close()
	st.mu.Unlock()

	c2, st2 := openTestStore(t, dir, 8)
	defer st2.Close()
	f, err := lookup(c2, "lfn://cern.ch/a")
	if err != nil {
		t.Fatalf("recovered Lookup: %v", err)
	}
	if f.Attrs[AttrSize] != "10" {
		t.Fatalf("recovered attrs = %v", f.Attrs)
	}
	locs, err := c2.Locations("lfn://cern.ch/a")
	if err != nil || len(locs) != 1 || locs[0] != "gridftp://cern:2811/a" {
		t.Fatalf("recovered locations = %v, %v", locs, err)
	}
	members, err := c2.ListCollection("runs")
	if err != nil || len(members) != 1 {
		t.Fatalf("recovered collection = %v, %v", members, err)
	}
}

func TestStoreCompactAndRecover(t *testing.T) {
	dir := t.TempDir()
	c, st := openTestStore(t, dir, 8)
	for i := 0; i < 100; i++ {
		mustRegister(t, c, fmt.Sprintf("lfn://cern.ch/f%03d", i), nil)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Post-compaction mutations ride the fresh WAL.
	mustRegister(t, c, "lfn://cern.ch/after", nil)
	if err := c.Delete("lfn://cern.ch/f000"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2, st2 := openTestStore(t, dir, 8)
	defer st2.Close()
	if got := len(c2.Files()); got != 100 {
		t.Fatalf("recovered %d files, want 100", got)
	}
	if _, err := lookup(c2, "lfn://cern.ch/f000"); err == nil {
		t.Fatal("deleted file resurrected")
	}
	if _, err := lookup(c2, "lfn://cern.ch/after"); err != nil {
		t.Fatalf("post-compact register lost: %v", err)
	}
}

func TestStoreRebalanceAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	c, st := openTestStore(t, dir, 4)
	for i := 0; i < 200; i++ {
		lfn := fmt.Sprintf("lfn://cern.ch/f%03d", i)
		mustRegister(t, c, lfn, map[string]string{AttrSize: fmt.Sprint(i)})
		if err := c.AddReplica(lfn, "gridftp://cern:2811/"+lfn); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with 4x the shards: load re-hashes every entry into the new
	// layout, so a shard-count change is a rebalance, not a migration.
	c2, st2 := openTestStore(t, dir, 16)
	defer st2.Close()
	if c2.ShardCount() != 16 {
		t.Fatalf("ShardCount() = %d", c2.ShardCount())
	}
	for i := 0; i < 200; i++ {
		lfn := fmt.Sprintf("lfn://cern.ch/f%03d", i)
		f, err := lookup(c2, lfn)
		if err != nil {
			t.Fatalf("rebalanced Lookup(%s): %v", lfn, err)
		}
		if f.Attrs[AttrSize] != fmt.Sprint(i) {
			t.Fatalf("rebalanced attrs = %v", f.Attrs)
		}
		if locs, _ := c2.Locations(lfn); len(locs) != 1 {
			t.Fatalf("rebalanced locations(%s) = %v", lfn, locs)
		}
	}
	// And every entry must live on the shard its hash names.
	for i, sh := range c2.shards {
		sh.mu.RLock()
		for lfn := range sh.files {
			if want := shardIndex(lfn, 16); want != i {
				t.Errorf("%s on shard %d, want %d", lfn, i, want)
			}
		}
		sh.mu.RUnlock()
	}
}

// TestStoreReopensWithoutDanglingMember: a WAL whose add_to_collection
// follows its file's delete (the order a Delete racing AddToCollection
// could once log) replays, compacts and reopens, without the member.
func TestStoreReopensWithoutDanglingMember(t *testing.T) {
	dir := t.TempDir()
	_, st := openTestStore(t, dir, 4)
	for _, m := range []Mutation{
		{Op: MutRegister, LFN: "lfn://a"},
		{Op: MutCreateColl, Coll: "runs"},
		{Op: MutDelete, LFN: "lfn://a"},
		{Op: MutAddToColl, Coll: "runs", LFN: "lfn://a"},
	} {
		if err := st.append(m); err != nil {
			t.Fatal(err)
		}
	}
	// Close the WAL without compacting: the next open replays the records.
	st.mu.Lock()
	st.j.Close()
	st.mu.Unlock()
	_, st2 := openTestStore(t, dir, 4)
	if err := st2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c3, st3 := openTestStore(t, dir, 4)
	defer st3.Close()
	if members, err := c3.ListCollection("runs"); err != nil || len(members) != 0 {
		t.Fatalf("collection after reopen = %v, %v; want empty", members, err)
	}
}

// TestStoreDeleteRacingAddToCollection: Delete and AddToCollection racing
// on the same files, with compactions between them, neither deadlock
// (both take a shard lock, then collMu, then the journal's, as Compact
// does) nor leave a member without its file, live or reopened.
func TestStoreDeleteRacingAddToCollection(t *testing.T) {
	dir := t.TempDir()
	c, st := openTestStore(t, dir, 4)
	if err := c.CreateCollection("runs"); err != nil {
		t.Fatal(err)
	}
	const n = 200
	lfn := func(i int) string { return fmt.Sprintf("lfn://cern.ch/f%03d", i) }
	for i := 0; i < n; i++ {
		mustRegister(t, c, lfn(i), nil)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			c.AddToCollection("runs", lfn(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			c.Delete(lfn(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n/20; i++ {
			if err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if members, err := c.ListCollection("runs"); err != nil || len(members) != 0 {
		t.Fatalf("every file is deleted, yet the collection holds %v (%v)", members, err)
	}
	if members, err := reopenFromSnapshot(t, dir, st, 4).ListCollection("runs"); err != nil || len(members) != 0 {
		t.Fatalf("reopened collection holds %v (%v)", members, err)
	}
}

// TestStoreOpensParentWAL: testdata/parentstore is a WAL-only store written
// by the build before the catalog moved into the journal snapshot, with
// every op in it; it replays to the catalog that build held, recorded in
// testdata/parentstore.catalog.
func TestStoreOpensParentWAL(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("testdata", "parentstore", storeWALDir, "wal.0"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parentstore.catalog"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, storeWALDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, storeWALDir, "wal.0"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	c, st := openTestStore(t, dir, 8)
	defer st.Close()
	if got := dumpCatalog(c); got != string(want) {
		t.Fatalf("replayed catalog:\n%s\nwant:\n%s", got, want)
	}
	if lfn, err := c.GenerateLFN("cern.ch", "auto", nil); err != nil || lfn != "lfn://cern.ch/auto.000003" {
		t.Fatalf("GenerateLFN after replay = %q, %v; want the serial to continue at 3", lfn, err)
	}
}

// FuzzDecodeMutation feeds hostile bytes to the one record decoder, which
// reads every WAL record and every snapshot record. Seeds are one record
// per op and each cut short by a byte; `make fuzz-smoke` mutates them.
func FuzzDecodeMutation(f *testing.F) {
	attrs := map[string]string{AttrSize: "10", AttrCRC: "1a2b3c4d"}
	for _, m := range []Mutation{
		{Op: MutRegister, LFN: "lfn://cern.ch/a", Serial: 7, Attrs: attrs},
		{Op: MutSetAttrs, LFN: "lfn://cern.ch/a", Attrs: attrs},
		{Op: MutDelete, LFN: "lfn://cern.ch/a"},
		{Op: MutAddReplica, LFN: "lfn://cern.ch/a", PFN: "gridftp://cern.ch:2811/a"},
		{Op: MutRemoveReplica, LFN: "lfn://cern.ch/a", PFN: "gridftp://cern.ch:2811/a"},
		{Op: MutCreateColl, Coll: "runs"},
		{Op: MutDeleteColl, Coll: "runs", Force: true},
		{Op: MutAddToColl, Coll: "runs", LFN: "lfn://cern.ch/a"},
		{Op: MutRemoveFromColl, Coll: "runs", LFN: "lfn://cern.ch/a"},
	} {
		var e rpc.Encoder
		encodeMutation(&e, m)
		f.Add(e.Bytes())
		f.Add(e.Bytes()[:len(e.Bytes())-1])
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var m Mutation
		var err error
		// Strings and attributes cost memory only for bytes actually
		// present; nothing is allocated for what a length or count claims.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err = decodeMutation(rpc.NewDecoder(p))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10+16*uint64(len(p)) {
			t.Fatalf("decoding a %d-byte record allocated %d bytes", len(p), got)
		}
		if err != nil {
			return
		}
		var e rpc.Encoder
		encodeMutation(&e, m)
		again, err := decodeMutation(rpc.NewDecoder(e.Bytes()))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", m, again, err)
		}
	})
}

func TestStoreSerialSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c, st := openTestStore(t, dir, 4)
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		lfn, err := c.GenerateLFN("cern.ch", "events.db", nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[lfn] = true
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	c2, st2 := openTestStore(t, dir, 4)
	defer st2.Close()
	for i := 0; i < 10; i++ {
		lfn, err := c2.GenerateLFN("cern.ch", "events.db", nil)
		if err != nil {
			t.Fatalf("GenerateLFN after restart: %v", err)
		}
		if seen[lfn] {
			t.Fatalf("restart reissued LFN %q", lfn)
		}
	}
}

// TestStoreSerialSurvivesEmptyCompaction: once every generated file is
// deleted, no register record in the snapshot names the serial's last
// value, yet a reopened catalog must not mint a name it already gave out.
func TestStoreSerialSurvivesEmptyCompaction(t *testing.T) {
	dir := t.TempDir()
	c, st := openTestStore(t, dir, 4)
	var last string
	for i := 0; i < 3; i++ {
		lfn, err := c.GenerateLFN("cern.ch", "events.db", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(lfn); err != nil {
			t.Fatal(err)
		}
		last = lfn
	}
	c2 := reopenFromSnapshot(t, dir, st, 4)
	if n := len(c2.Files()); n != 0 {
		t.Fatalf("reopened catalog holds %d files, want none", n)
	}
	lfn, err := c2.GenerateLFN("cern.ch", "events.db", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "lfn://cern.ch/events.db.000004"; lfn != want {
		t.Fatalf("GenerateLFN after compacting an empty catalog = %q (the last one was %q); want %q", lfn, last, want)
	}
}
