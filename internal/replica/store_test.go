package replica

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gdmp/internal/obs"
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
// empty and the shard snapshot alone carries the state.
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
	f, err := c2.Lookup("lfn://cern.ch/a")
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
	if _, err := c2.Lookup("lfn://cern.ch/f000"); err == nil {
		t.Fatal("deleted file resurrected")
	}
	if _, err := c2.Lookup("lfn://cern.ch/after"); err != nil {
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
		f, err := c2.Lookup(lfn)
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

func TestStoreSweepsStaleGenerations(t *testing.T) {
	dir := t.TempDir()
	c, st := openTestStore(t, dir, 4)
	mustRegister(t, c, "lfn://cern.ch/a", nil)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Plant a stale generation dir, as a crash mid-compact would leave.
	stale := filepath.Join(dir, "shards.99")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, st2 := openTestStore(t, dir, 4)
	defer st2.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	gens := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "shards.") {
			gens++
		}
	}
	if gens != 1 {
		t.Fatalf("%d generation dirs survive, want 1", gens)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale generation not swept")
	}
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
