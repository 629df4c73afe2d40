package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

func newTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	return New(Options{})
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

// dumpCatalog renders every file (attributes, locations) and collection
// (members) in name order.
func dumpCatalog(c *Catalog) string {
	var b strings.Builder
	for _, n := range c.Files() {
		f, _ := c.Lookup(n)
		locs, _ := c.Locations(n)
		fmt.Fprintf(&b, "file %q %q %q\n", n, f.Attrs, locs)
	}
	for _, n := range c.Collections() {
		members, _ := c.ListCollection(n)
		fmt.Fprintf(&b, "coll %q %q\n", n, members)
	}
	return b.String()
}

// TestCatalogRefusedAppendChangesNothing: a mutation whose journal append
// is refused returns the refusal and leaves the catalog as it was, so the
// same call succeeds once the journal takes it.
func TestCatalogRefusedAppendChangesNothing(t *testing.T) {
	refused := errors.New("append refused")
	for _, tc := range []struct {
		name string
		op   func(c *Catalog) error
	}{
		{"register", func(c *Catalog) error { return c.Register("lfn://new", map[string]string{AttrSize: "1"}) }},
		{"generate", func(c *Catalog) error { _, err := c.GenerateLFN("cern.ch", "auto", nil); return err }},
		{"set attrs", func(c *Catalog) error { return c.SetAttrs("lfn://a", map[string]string{AttrSize: "2"}) }},
		{"delete", func(c *Catalog) error { return c.Delete("lfn://a") }},
		{"add replica", func(c *Catalog) error { return c.AddReplica("lfn://a", "pfn://a2") }},
		{"remove replica", func(c *Catalog) error { return c.RemoveReplica("lfn://a", "pfn://a1") }},
		{"create collection", func(c *Catalog) error { return c.CreateCollection("new") }},
		{"delete collection", func(c *Catalog) error { return c.DeleteCollection("runs", true) }},
		{"add to collection", func(c *Catalog) error { return c.AddToCollection("runs", "lfn://b") }},
		{"remove from collection", func(c *Catalog) error { return c.RemoveFromCollection("runs", "lfn://a") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Options{Shards: 4, Registry: obs.NewRegistry()})
			mustRegister(t, c, "lfn://a", map[string]string{AttrSize: "1"})
			mustRegister(t, c, "lfn://b", nil)
			if err := c.AddReplica("lfn://a", "pfn://a1"); err != nil {
				t.Fatal(err)
			}
			if err := c.CreateCollection("runs"); err != nil {
				t.Fatal(err)
			}
			if err := c.AddToCollection("runs", "lfn://a"); err != nil {
				t.Fatal(err)
			}
			before := dumpCatalog(c)
			c.OnMutate(func(Mutation) error { return refused })
			if err := tc.op(c); !errors.Is(err, refused) {
				t.Fatalf("refused append returned %v", err)
			}
			if after := dumpCatalog(c); after != before {
				t.Fatalf("a refused append changed the catalog:\n%s\nwas:\n%s", after, before)
			}
			c.OnMutate(nil)
			if err := tc.op(c); err != nil {
				t.Fatalf("retry after the refusal: %v", err)
			}
		})
	}
}

// The snapshot tests drive the one persistence path there is: a journaled
// Store compacts the catalog into the journal's snapshot and a reopen
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

// snapshotPath is the store's journal snapshot file.
func snapshotPath(storeDir string) string {
	return filepath.Join(storeDir, storeWALDir, "snapshot")
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() string {
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
		b, err := os.ReadFile(snapshotPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if build() != build() {
		t.Fatal("snapshot not deterministic")
	}
}

// recompact replaces the store's journal snapshot with the records edit
// makes of the current ones, framed and counted as the journal writes
// every snapshot.
func recompact(t *testing.T, dir string, edit func(old [][]byte) [][]byte) {
	t.Helper()
	var old [][]byte
	j, _, err := journal.Open(filepath.Join(dir, storeWALDir), journal.Options{NoSync: true, Registry: obs.NewRegistry(), Replay: func(r []byte) error {
		old = append(old, append([]byte(nil), r...))
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	records := edit(old)
	if err := j.Compact(func(yield func([]byte) bool) {
		for _, r := range records {
			if !yield(r) {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// rewriteSnapshot replaces the store's snapshot file with edit's bytes.
func rewriteSnapshot(t *testing.T, dir string, edit func(b []byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(snapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir), edit(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		says   string
	}{
		{"flipped snapshot byte", func(t *testing.T, dir string) {
			rewriteSnapshot(t, dir, func(b []byte) []byte {
				b[len(b)-1] ^= 0x01
				return b
			})
		}, "checksum"},
		{"snapshot cut at a frame boundary", func(t *testing.T, dir string) {
			// The last record is an add_replica of "pfn"; its frame is 8
			// bytes of header and the record itself.
			var e rpc.Encoder
			encodeMutation(&e, Mutation{Op: MutAddReplica, LFN: "lfn://cern.ch/a", PFN: "pfn"})
			rewriteSnapshot(t, dir, func(b []byte) []byte { return b[:len(b)-8-e.Len()] })
		}, "2 of 3 records"},
		{"truncated snapshot payload", func(t *testing.T, dir string) {
			recompact(t, dir, func(old [][]byte) [][]byte {
				last := old[len(old)-1]
				return append(old[:len(old)-1], last[:len(last)-1])
			})
		}, "truncated"},
		{"parent-format store", func(t *testing.T, dir string) {
			recompact(t, dir, func([][]byte) [][]byte { return [][]byte{[]byte("rls-shards 1")} })
		}, "unknown mutation record version"},
		{"older-build snapshot", func(t *testing.T, dir string) {
			// The layout every snapshot had before it became a run of
			// records: a v2 header, the generation, and one checksummed
			// payload (here the catalog format of that build).
			payload := append([]byte{0, 0, 0, 23}, "gdmp-replica-catalog v1"...)
			b := binary.BigEndian.AppendUint64([]byte("gdmp-journal-snapshot v2\n"), 1)
			b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
			b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
			rewriteSnapshot(t, dir, func([]byte) []byte { return append(b, payload...) })
		}, "older build"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, st := openTestStore(t, dir, 1)
			mustRegister(t, c, "lfn://cern.ch/a", nil)
			if err := c.AddReplica("lfn://cern.ch/a", "pfn"); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir)
			st2, err := OpenStore(dir, New(Options{Shards: 1, Registry: obs.NewRegistry()}),
				StoreOptions{Registry: obs.NewRegistry(), NoSync: true})
			if err == nil {
				st2.Close()
				t.Fatal("corruption accepted")
			}
			if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), tc.says) {
				t.Fatalf("error %q does not name the store directory and say %q", err, tc.says)
			}
		})
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
