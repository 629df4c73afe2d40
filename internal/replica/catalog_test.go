package replica

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"gdmp/internal/obs"
)

func newTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	return NewCatalog()
}

func mustRegister(t *testing.T, c *Catalog, name string, attrs map[string]string) {
	t.Helper()
	if err := c.Register(name, attrs); err != nil {
		t.Fatalf("Register(%q): %v", name, err)
	}
}

func TestRegisterAndLookup(t *testing.T) {
	c := newTestCatalog(t)
	mustRegister(t, c, "lfn://cern.ch/run42.db", map[string]string{AttrSize: "1024", AttrOwner: "alice"})
	f, err := c.Lookup("lfn://cern.ch/run42.db")
	if err != nil {
		t.Fatal(err)
	}
	if f.Attrs[AttrSize] != "1024" || f.Attrs[AttrOwner] != "alice" {
		t.Fatalf("attrs = %v", f.Attrs)
	}
	if size, ok := f.Size(); !ok || size != 1024 {
		t.Fatalf("Size() = %d, %v", size, ok)
	}
}

func TestGlobalNamespaceUniqueness(t *testing.T) {
	c := newTestCatalog(t)
	mustRegister(t, c, "lfn://cern.ch/a", nil)
	err := c.Register("lfn://cern.ch/a", nil)
	if !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate registration: %v", err)
	}
}

func TestRegisterValidatesNames(t *testing.T) {
	c := newTestCatalog(t)
	for _, bad := range []string{"", "has\nnewline", "has\ttab"} {
		if err := c.Register(bad, nil); !errors.Is(err, ErrBadName) {
			t.Errorf("Register(%q): %v, want ErrBadName", bad, err)
		}
	}
}

func TestLookupCopiesAttrs(t *testing.T) {
	c := newTestCatalog(t)
	mustRegister(t, c, "f", map[string]string{"k": "v"})
	f, _ := c.Lookup("f")
	f.Attrs["k"] = "mutated"
	g, _ := c.Lookup("f")
	if g.Attrs["k"] != "v" {
		t.Fatal("Lookup leaked internal state")
	}
}

func TestGenerateLFNUnique(t *testing.T) {
	c := newTestCatalog(t)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		lfn, err := c.GenerateLFN("cern.ch", "events.db", nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[lfn] {
			t.Fatalf("GenerateLFN repeated %q", lfn)
		}
		seen[lfn] = true
		if _, err := c.Lookup(lfn); err != nil {
			t.Fatalf("generated LFN not registered: %v", err)
		}
	}
}

func TestSetAttrsAndDelete(t *testing.T) {
	c := newTestCatalog(t)
	mustRegister(t, c, "f", map[string]string{"a": "1"})
	if err := c.SetAttrs("f", map[string]string{"b": "2"}); err != nil {
		t.Fatal(err)
	}
	f, _ := c.Lookup("f")
	if f.Attrs["a"] != "1" || f.Attrs["b"] != "2" {
		t.Fatalf("attrs after merge = %v", f.Attrs)
	}
	if err := c.SetAttrs("missing", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetAttrs(missing): %v", err)
	}
	if err := c.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup after delete: %v", err)
	}
	if err := c.Delete("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestReplicaLifecycle(t *testing.T) {
	c := newTestCatalog(t)
	mustRegister(t, c, "lfn://x", nil)
	if err := c.AddReplica("lfn://x", "gridftp://cern.ch:2811/data/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica("lfn://x", "gridftp://anl.gov:2811/data/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica("lfn://x", "gridftp://cern.ch:2811/data/x"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate replica: %v", err)
	}
	locs, err := c.Locations("lfn://x")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 || locs[0] != "gridftp://anl.gov:2811/data/x" {
		t.Fatalf("Locations = %v", locs)
	}
	if err := c.RemoveReplica("lfn://x", "gridftp://anl.gov:2811/data/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveReplica("lfn://x", "gridftp://anl.gov:2811/data/x"); !errors.Is(err, ErrNoSuchReplica) {
		t.Fatalf("remove twice: %v", err)
	}
	locs, _ = c.Locations("lfn://x")
	if len(locs) != 1 {
		t.Fatalf("Locations after removal = %v", locs)
	}
	if _, err := c.Locations("unknown"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Locations(unknown): %v", err)
	}
	if err := c.AddReplica("unknown", "pfn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("AddReplica(unknown): %v", err)
	}
}

func TestCollections(t *testing.T) {
	c := newTestCatalog(t)
	mustRegister(t, c, "a", nil)
	mustRegister(t, c, "b", nil)
	if err := c.CreateCollection("run-2001"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCollection("run-2001"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate collection: %v", err)
	}
	if err := c.AddToCollection("run-2001", "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddToCollection("run-2001", "b"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddToCollection("run-2001", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("adding unregistered lfn: %v", err)
	}
	members, err := c.ListCollection("run-2001")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0] != "a" || members[1] != "b" {
		t.Fatalf("members = %v", members)
	}
	// Non-empty collections require force to delete.
	if err := c.DeleteCollection("run-2001", false); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("delete non-empty: %v", err)
	}
	if err := c.RemoveFromCollection("run-2001", "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveFromCollection("run-2001", "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("remove twice: %v", err)
	}
	// Deleting a file cascades out of collections.
	if err := c.Delete("b"); err != nil {
		t.Fatal(err)
	}
	members, _ = c.ListCollection("run-2001")
	if len(members) != 0 {
		t.Fatalf("members after cascade = %v", members)
	}
	if err := c.DeleteCollection("run-2001", false); err != nil {
		t.Fatal(err)
	}
	if got := c.Collections(); len(got) != 0 {
		t.Fatalf("Collections = %v", got)
	}
}

func TestStats(t *testing.T) {
	c := newTestCatalog(t)
	mustRegister(t, c, "a", nil)
	mustRegister(t, c, "b", nil)
	c.AddReplica("a", "p1")
	c.AddReplica("a", "p2")
	c.AddReplica("b", "p3")
	c.CreateCollection("coll")
	st := c.Stats()
	if st.Files != 2 || st.Replicas != 3 || st.Collections != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestConcurrentCatalogAccess(t *testing.T) {
	c := newTestCatalog(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("lfn://site%d/file%d", g, i)
				if err := c.Register(name, map[string]string{AttrSize: "1"}); err != nil {
					t.Errorf("Register: %v", err)
					return
				}
				if err := c.AddReplica(name, "pfn://"+name); err != nil {
					t.Errorf("AddReplica: %v", err)
					return
				}
				if _, err := c.Locations(name); err != nil {
					t.Errorf("Locations: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Files != 400 || st.Replicas != 400 {
		t.Fatalf("Stats after concurrent load = %+v", st)
	}
}

// The snapshot tests drive the one persistence path there is: a journaled
// Store compacts the catalog into a shard-snapshot directory and a reopen
// reads it back (see reopenFromSnapshot).

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, st := openTestStore(t, dir, 8)
	mustRegister(t, c, "lfn://cern.ch/run1.db", map[string]string{
		AttrSize: "2048", AttrOwner: "heinz", "weird key": "value with \"quotes\" and\nnewline",
	})
	mustRegister(t, c, "lfn://cern.ch/run2.db", nil)
	c.AddReplica("lfn://cern.ch/run1.db", "gridftp://cern.ch/data/run1.db")
	c.AddReplica("lfn://cern.ch/run1.db", "gridftp://anl.gov/data/run1.db")
	c.CreateCollection("runs")
	c.AddToCollection("runs", "lfn://cern.ch/run1.db")
	if _, err := c.GenerateLFN("cern.ch", "auto", nil); err != nil {
		t.Fatal(err)
	}

	restored := reopenFromSnapshot(t, dir, st, 8)

	if st, want := restored.Stats(), c.Stats(); st != want {
		t.Fatalf("restored stats %+v, want %+v", st, want)
	}
	f, err := restored.Lookup("lfn://cern.ch/run1.db")
	if err != nil {
		t.Fatal(err)
	}
	if f.Attrs["weird key"] != "value with \"quotes\" and\nnewline" {
		t.Fatalf("attribute escaping broken: %q", f.Attrs["weird key"])
	}
	locs, _ := restored.Locations("lfn://cern.ch/run1.db")
	if len(locs) != 2 {
		t.Fatalf("restored locations = %v", locs)
	}
	members, _ := restored.ListCollection("runs")
	if len(members) != 1 || members[0] != "lfn://cern.ch/run1.db" {
		t.Fatalf("restored members = %v", members)
	}
	// The serial counter survives, so generated names stay unique.
	lfn, err := restored.GenerateLFN("cern.ch", "auto", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(lfn); err == nil {
		t.Fatalf("restored catalog reused serial: %q", lfn)
	}
}

// snapshotFiles returns the contents of the store's live snapshot
// directory by file name.
func snapshotFiles(t *testing.T, storeDir string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(storeDir, "shards.*", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no snapshot files under %s (%v)", storeDir, err)
	}
	files := make(map[string]string, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = string(b)
	}
	return files
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() map[string]string {
		dir := t.TempDir()
		c, st := openTestStore(t, dir, 4)
		for i := 0; i < 20; i++ {
			c.Register(fmt.Sprintf("f%02d", i), map[string]string{"i": fmt.Sprint(i), AttrSize: "10"})
			c.AddReplica(fmt.Sprintf("f%02d", i), fmt.Sprintf("pfn%d", i))
		}
		c.CreateCollection("all")
		for i := 0; i < 20; i++ {
			c.AddToCollection("all", fmt.Sprintf("f%02d", i))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return snapshotFiles(t, dir)
	}
	a, b := build(), build()
	if len(a) != 5 { // meta + 4 shard files
		t.Fatalf("snapshot holds %d files, want 5", len(a))
	}
	for name, content := range a {
		if b[name] != content {
			t.Fatalf("snapshot file %s not deterministic", name)
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	const meta, shard = metaFileName, "shard-0000.snap"
	const removed = "\x00removed" // content standing for "delete the file"
	cases := []struct{ name, file, content string }{
		{"empty", shard, ""},
		{"bad header", shard, "not-a-snapshot\n"},
		{"shard header on meta", meta, shardHeader + "\n"},
		{"attr first", shard, shardHeader + "\nattr \"k\" \"v\"\n"},
		{"member first", meta, metaHeader + "\nmember \"x\"\n"},
		{"unknown verb", shard, shardHeader + "\nfrobnicate \"x\"\n"},
		{"bad quoting", shard, shardHeader + "\nfile notquoted\n"},
		{"dangling member", meta, metaHeader + "\ncoll \"c\"\nmember \"nofile\"\n"},
		{"duplicate file", shard, shardHeader + "\nfile \"a\"\nfile \"a\"\n"},
		{"bad serial", meta, metaHeader + "\nserial notanumber\n"},
		{"file in meta", meta, metaHeader + "\nfile \"a\"\n"},
		{"coll in shard", shard, shardHeader + "\ncoll \"c\"\n"},
		{"meta missing", meta, removed},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		c, st := openTestStore(t, dir, 1)
		mustRegister(t, c, "lfn://cern.ch/a", nil)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		gens, _ := filepath.Glob(filepath.Join(dir, "shards.*"))
		if len(gens) != 1 {
			t.Fatalf("%s: %d snapshot generations", tc.name, len(gens))
		}
		path := filepath.Join(gens[0], tc.file)
		var err error
		if tc.content == removed {
			err = os.Remove(path)
		} else {
			err = os.WriteFile(path, []byte(tc.content), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		st2, err := OpenStore(dir, New(Options{Shards: 1, Registry: obs.NewRegistry()}),
			StoreOptions{Registry: obs.NewRegistry(), NoSync: true})
		if err == nil {
			st2.Close()
			t.Errorf("%s: corruption accepted", tc.name)
		}
	}
}

// TestSnapshotPropertyRoundTrip: any catalog built from generated names
// survives a compact/reopen cycle with identical contents.
func TestSnapshotPropertyRoundTrip(t *testing.T) {
	f := func(names []string, attr string) bool {
		dir := t.TempDir()
		c, st := openTestStore(t, dir, 4)
		registered := make(map[string]bool)
		for _, n := range names {
			if validName(n) != nil || registered[n] {
				continue
			}
			registered[n] = true
			c.Register(n, map[string]string{"attr": attr})
			c.AddReplica(n, "pfn://"+n)
		}
		r := reopenFromSnapshot(t, dir, st, 4)
		if len(r.Files()) != len(c.Files()) {
			return false
		}
		for _, n := range r.Files() {
			lf, err := r.Lookup(n)
			if err != nil || lf.Attrs["attr"] != attr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
