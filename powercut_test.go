// Power-cut tests: testbed.Recorder rolls a directory back to what its
// fsyncs and directory fsyncs made durable, POSIX-minimal, and each test
// here holds one durable write to what must survive that. The flush counts
// of the publish and pull paths are pinned here too, once.
package gdmp_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/durable"
	"gdmp/internal/faults"
	"gdmp/internal/gridftp"
	"gdmp/internal/journal"
	"gdmp/internal/mss"
	"gdmp/internal/objectstore"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
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
		// Publish, with no subscriber to notify: the journal's entry
		// append. The sidecar proves itself to parity.Load and is not
		// synced.
		{"publish", "cern.ch", func() {
			pf, err := prod.Publish("runs/b.db", core.PublishOptions{})
			if err != nil {
				t.Fatal(err)
			}
			second = pf.LFN
		}, 1, 0, 1},
		// Pull: the landed file and its directory, and the journal's two
		// appends (intent, and the entry that retires it),
		// journal.appends_per_pull of bulk_pull and small_drain. The
		// sidecar is not synced.
		{"pull", "anl.gov", func() {
			if err := cons.Get(second); err != nil {
				t.Fatal(err)
			}
		}, 3, 1, 2},
	} {
		files, dirs, appends := flushes(tc.site, tc.op)
		if files != tc.files || dirs != tc.dirs || appends != tc.appends {
			t.Errorf("one %s: %d file fsyncs (%d of them journal appends), %d directory fsyncs; want %d (%d), %d",
				tc.what, files, appends, dirs, tc.files, tc.appends, tc.dirs)
		}
	}
}

// readBytes is the process's rchar: every byte its read syscalls returned,
// from files and sockets alike.
func readBytes(t *testing.T) int64 {
	t.Helper()
	io, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no per-process I/O accounting here: %v", err)
	}
	for _, line := range strings.Split(string(io), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("/proc/self/io has no rchar")
	return 0
}

// TestLandingReadPasses pins how often one publish and one pull of a 4 MiB
// file read its payload, durable with 8+2 parity and no periodic pass
// running, counted in the bytes the process's reads returned (both sites
// and the catalog share it). A publish reads the file once: the sidecar's
// encode yields the CRC. A pull reads it three times: the producer's RETR,
// the consumer's socket reads, and the encode of the staged file, which
// holds it to the catalog's CRC in place of the source's whole-file CKSM.
// The control traffic beside them is far below a quarter of the file.
func TestLandingReadPasses(t *testing.T) {
	const size = 4 << 20
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, name := range []string{"cern.ch", "anl.gov"} {
		if _, err := g.AddSite(name, testbed.SiteOptions{Durable: true, ParityK: 8, ParityM: 2}); err != nil {
			t.Fatal(err)
		}
	}
	prod, cons := g.Site("cern.ch"), g.Site("anl.gov")
	// A first publish and pull warm up the sessions both measured ones reuse.
	first := publishData(t, g, prod, "runs/a.db", testbed.MakeData(100_000, 1))
	if err := cons.Get(first.LFN); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteSiteFile("cern.ch", "runs/b.db", testbed.MakeData(size, 2)); err != nil {
		t.Fatal(err)
	}
	passes := func(op func()) float64 {
		before := readBytes(t)
		op()
		return float64(readBytes(t)-before) / size
	}
	var lfn string
	for _, tc := range []struct {
		what string
		op   func()
		want float64
	}{
		{"publish", func() {
			pf, err := prod.Publish("runs/b.db", core.PublishOptions{})
			if err != nil {
				t.Fatal(err)
			}
			lfn = pf.LFN
		}, 1},
		{"pull", func() {
			if err := cons.Get(lfn); err != nil {
				t.Fatal(err)
			}
		}, 3},
	} {
		if got := passes(tc.op); math.Abs(got-tc.want) > 0.25 {
			t.Errorf("one %s read its payload %.2f times; want %v", tc.what, got, tc.want)
		}
	}
}

// TestPowerCutUnsyncedSidecar: a parity sidecar is neither fsynced nor
// renamed durably on its own, so once a later landing in its directory has
// synced its name a power cut leaves it empty. Recovery drops it, the next
// scrub pass regenerates one that loads, and damage within the parity
// budget after that is rebuilt in place with no byte re-pulled.
func TestPowerCutUnsyncedSidecar(t *testing.T) {
	const k, m = 8, 2
	ctx := context.Background()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{ParityK: k, ParityM: m})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{Durable: true, RecordSyncs: true, Metrics: reg, ParityK: k, ParityM: m})
	if err != nil {
		t.Fatal(err)
	}
	data := testbed.MakeData(300_000, 1)
	first := publishData(t, g, prod, "runs/a.db", data)
	second := publishData(t, g, prod, "runs/b.db", testbed.MakeData(300_000, 2))
	for _, lfn := range []string{first.LFN, second.LFN} {
		if err := cons.Get(lfn); err != nil {
			t.Fatal(err)
		}
	}
	replica := filepath.Join(cons.DataDir(), "runs", "a.db")
	sidecar := parity.SidecarPath(replica)

	if err := g.PowerCut("anl.gov"); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(sidecar); err != nil || st.Size() != 0 {
		t.Fatalf("after the power cut the sidecar is %v (%v); want an empty file", st, err)
	}
	if cons, err = g.RestartSite("anl.gov"); err != nil {
		t.Fatal(err)
	}
	if !cons.HasFile(first.LFN) {
		t.Fatal("the landed replica did not survive the power cut")
	}
	if _, err := os.Stat(sidecar); !os.IsNotExist(err) {
		t.Fatalf("recovery kept the empty sidecar (%v)", err)
	}

	if _, err := cons.ScrubPass(ctx); err != nil {
		t.Fatal(err)
	}
	sc, _, err := parity.Load(sidecar)
	if err != nil {
		t.Fatalf("scrub regenerated no sidecar that loads: %v", err)
	}

	if _, err := faults.FlipBlocks(replica, 3, sc.BlockSize, m); err != nil {
		t.Fatal(err)
	}
	rep, err := cons.ScrubPass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(replica); err != nil || !bytes.Equal(got, data) || rep.Rebuilt != 1 {
		t.Fatalf("within-budget damage: rebuilt %d, replica restored %v (%v)", rep.Rebuilt, bytes.Equal(got, data), err)
	}
	text := reg.Text()
	if local, repulled := metricValue(text, "gdmp_repair_bytes_local_total"), metricValue(text, "gdmp_repair_bytes_repulled_total"); local != float64(m*sc.BlockSize) || repulled != 0 {
		t.Fatalf("repair bytes: %v local, %v re-pulled; want %d and 0", local, repulled, m*sc.BlockSize)
	}
}
