// Power-cut tests: testbed.Recorder rolls a directory back to what its
// fsyncs and directory fsyncs made durable, POSIX-minimal, and each test
// here holds one durable write to what must survive that. The flush counts
// of the publish and pull paths are pinned here too, once.
package gdmp_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/durable"
	"gdmp/internal/gridftp"
	"gdmp/internal/journal"
	"gdmp/internal/mss"
	"gdmp/internal/objectstore"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
)

// writeDurably writes a harness input so that it survives a power cut.
func writeDurably(t *testing.T, path string, data []byte) {
	t.Helper()
	err := durable.MkdirAll(filepath.Dir(path))
	if err == nil {
		err = durable.WriteAtomic(path, func(f *os.File) error {
			_, err := f.Write(data)
			return err
		})
	}
	if err == nil {
		err = durable.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// record starts a recorder over dir for the test's lifetime.
func record(t *testing.T, dir string) *testbed.Recorder {
	t.Helper()
	rec, err := testbed.Record(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Stop)
	return rec
}

// TestPowerCutCompaction: a power cut after a compaction and one more
// append loses no record and replays none twice: the journal directory,
// the new snapshot and its WAL are durable before the old WAL goes.
func TestPowerCutCompaction(t *testing.T) {
	dir := t.TempDir()
	rec := record(t, dir)
	open := func() (*journal.Journal, []string) {
		var got []string
		j, _, err := journal.Open(filepath.Join(dir, "state", "journal"), journal.Options{
			Registry: obs.NewRegistry(),
			Replay: func(r []byte) error {
				got = append(got, string(r))
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return j, got
	}
	j, _ := open()
	for _, r := range []string{"a", "b"} {
		if err := j.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	err := j.Compact(func(yield func([]byte) bool) { yield([]byte("a+b")) })
	if err == nil {
		err = j.Append([]byte("c"))
	}
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := rec.Cut(); err != nil {
		t.Fatal(err)
	}
	j, got := open()
	defer j.Close()
	if want := []string{"a+b", "c"}; !slices.Equal(got, want) {
		t.Fatalf("replayed %q after a power cut, want %q", got, want)
	}
}

// TestPowerCutArchiveKeepsTapeCopy: Archive's tape copy is durable, so a
// power cut right after it leaves the whole file on tape. Pool eviction may
// delete the pool copy next, leaving the tape copy as the only one.
func TestPowerCutArchiveKeepsTapeCopy(t *testing.T) {
	dir := t.TempDir()
	rec := record(t, dir)
	m, err := mss.New(mss.Config{
		TapeDir:      filepath.Join(dir, "tape"),
		PoolDir:      filepath.Join(dir, "pool"),
		PoolCapacity: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := testbed.MakeData(50_000, 1)
	writeDurably(t, filepath.Join(dir, "pool", "runs", "f.db"), data)
	if err := m.AddToPool("runs/f.db"); err != nil {
		t.Fatal(err)
	}
	if err := m.Archive("runs/f.db"); err != nil {
		t.Fatal(err)
	}
	if err := rec.Cut(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "tape", "runs", "f.db"))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tape copy after a power cut: %d of %d bytes (%v)", len(got), len(data), err)
	}
}

// TestPowerCutFederationSave: once Save returns, a power cut leaves the
// new federation catalog — not the old one, and never an empty file.
func TestPowerCutFederationSave(t *testing.T) {
	dir := t.TempDir()
	catalog := filepath.Join(dir, "federation.cat")
	fed := objectstore.NewFederation()
	attach := func(name string, id uint32) {
		w, err := objectstore.Create(filepath.Join(dir, name), id)
		if err == nil {
			err = w.Close()
		}
		if err == nil {
			_, err = fed.Attach(filepath.Join(dir, name))
		}
		if err == nil {
			err = fed.Save(catalog)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	attach("a.db", 1)
	rec := record(t, dir) // the first catalog and database are the harness's input
	attach("b.db", 2)
	want, err := os.ReadFile(catalog)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Cut(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(catalog); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("catalog after a power cut = %q (%v); want %q", got, err, want)
	}
	if _, err := objectstore.LoadFederation(catalog); err != nil {
		t.Fatalf("catalog after a power cut does not load: %v", err)
	}
}

// TestPowerCutGridFTPStore: what a site's GridFTP server acknowledged with
// 226 survives a power cut: a STOR's whole file under its name (in a
// directory the STOR created) and an ESTO's region written in place.
func TestPowerCutGridFTPStore(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	site, err := g.AddSite("cern.ch", testbed.SiteOptions{RecordSyncs: true})
	if err != nil {
		t.Fatal(err)
	}
	cred, err := g.CA.Issue("alice", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := gridftp.Dial(site.DataAddr(), cred, g.Roots)
	if err != nil {
		t.Fatal(err)
	}
	want := testbed.MakeData(100_000, 1)
	_, err = cl.Put("up/new.db", bytes.NewReader(want), int64(len(want)))
	if err == nil {
		copy(want[5000:6000], testbed.MakeData(1000, 2))
		_, err = cl.PutRegion("up/new.db", bytes.NewReader(want), []gridftp.Range{{Start: 5000, End: 6000}})
	}
	cl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PowerCut("cern.ch"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(site.DataDir(), "up", "new.db"))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stored file after a power cut: %d of %d bytes, equal %v (%v)", len(got), len(want), bytes.Equal(got, want), err)
	}
}

// TestDurableFlushCounts pins the fsyncs and directory fsyncs of one
// publish and of one pull, durable with 8+2 parity, into a directory that
// already exists (the first file into a new directory adds one directory
// fsync per directory created). The journal's share of the file fsyncs is
// its appends, one fsync each.
func TestDurableFlushCounts(t *testing.T) {
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	regs := map[string]*obs.Registry{"cern.ch": obs.NewRegistry(), "anl.gov": obs.NewRegistry()}
	for name, reg := range regs {
		_, err := g.AddSite(name, testbed.SiteOptions{Durable: true, RecordSyncs: true, Metrics: reg, ParityK: 8, ParityM: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	prod, cons := g.Site("cern.ch"), g.Site("anl.gov")
	first := publishData(t, g, prod, "runs/a.db", testbed.MakeData(300_000, 1))
	if err := cons.Get(first.LFN); err != nil {
		t.Fatal(err)
	}

	// flushes runs op and returns the fsyncs it made at site name: of
	// files, of directories, and of the journal's WAL, checked against the
	// journal's own append count.
	flushes := func(name string, op func()) (files, dirs, wal int) {
		t.Helper()
		siteDir := filepath.Dir(g.Site(name).DataDir())
		walDir := filepath.Join(siteDir, "state", "journal")
		appends := func() float64 { return metricValue(regs[name].Text(), journal.MetricsPrefix+"_appends_total") }
		f0, d0 := g.Recorder(name).Syncs(siteDir)
		w0, _ := g.Recorder(name).Syncs(walDir)
		a0 := appends()
		op()
		f1, d1 := g.Recorder(name).Syncs(siteDir)
		w1, _ := g.Recorder(name).Syncs(walDir)
		if got := appends() - a0; float64(w1-w0) != got {
			t.Errorf("%s: %d WAL fsyncs for %v journal appends", name, w1-w0, got)
		}
		return f1 - f0, d1 - d0, w1 - w0
	}
	if _, err := g.WriteSiteFile("cern.ch", "runs/b.db", testbed.MakeData(300_000, 2)); err != nil {
		t.Fatal(err)
	}
	var second string
	for _, tc := range []struct {
		what                 string
		site                 string
		op                   func()
		files, dirs, appends int
	}{
		// Publish, with no subscriber to notify: the sidecar's staged
		// write, and the journal's entry append.
		{"publish", "cern.ch", func() {
			pf, err := prod.Publish("runs/b.db", core.PublishOptions{})
			if err != nil {
				t.Fatal(err)
			}
			second = pf.LFN
		}, 2, 0, 1},
		// Pull: the landed file and its directory, the sidecar's staged
		// write, and the journal's three appends (intent, entry, done),
		// journal.appends_per_pull of bulk_pull and small_drain.
		{"pull", "anl.gov", func() {
			if err := cons.Get(second); err != nil {
				t.Fatal(err)
			}
		}, 5, 1, 3},
	} {
		files, dirs, appends := flushes(tc.site, tc.op)
		if files != tc.files || dirs != tc.dirs || appends != tc.appends {
			t.Errorf("one %s: %d file fsyncs (%d of them journal appends), %d directory fsyncs; want %d (%d), %d",
				tc.what, files, appends, dirs, tc.files, tc.appends, tc.dirs)
		}
	}
}
