// Benchmark harness: one benchmark per table, figure, and quantified claim
// of the paper's evaluation. See DESIGN.md section 4 for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured outcomes.
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=Figure5 -v   (tables print with -v)
package gdmp_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/netsim"
	"gdmp/internal/objectstore"
	"gdmp/internal/objrep"
	"gdmp/internal/replica"
	"gdmp/internal/testbed"
	"gdmp/internal/wan"
	"gdmp/internal/workload"
)

// --- Figure 5: transfer rate vs parallel streams, untuned 64 KB buffers ----

func BenchmarkFigure5(b *testing.B) {
	benchmarkStreamFigure(b, netsim.UntunedBufferBytes)
}

// --- Figure 6: the same sweep with buffers tuned to 1 MB -------------------

func BenchmarkFigure6(b *testing.B) {
	benchmarkStreamFigure(b, netsim.TunedBufferBytes)
}

func benchmarkStreamFigure(b *testing.B, buffer int) {
	cfg := netsim.CERNtoANL()
	for _, mb := range netsim.FigureFileSizesMB {
		for streams := 1; streams <= 10; streams++ {
			name := fmt.Sprintf("file=%dMB/streams=%d", mb, streams)
			b.Run(name, func(b *testing.B) {
				var mean float64
				for i := 0; i < b.N; i++ {
					m, err := netsim.MeanThroughputMbps(cfg, netsim.Transfer{
						FileBytes:   int64(mb) * netsim.MB,
						Streams:     streams,
						BufferBytes: buffer,
					}, 5)
					if err != nil {
						b.Fatal(err)
					}
					mean = m
				}
				b.ReportMetric(mean, "Mbps")
			})
		}
	}
	b.Run("table", func(b *testing.B) {
		var sw netsim.Sweep
		for i := 0; i < b.N; i++ {
			var err error
			sw, err = netsim.StreamSweep(cfg, netsim.FigureFileSizesMB, 10, buffer, 5)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Logf("buffer=%d bytes\n%s", buffer, sw.Table())
	})
}

// --- Section 6 conclusions C1..C4 ------------------------------------------

func rateAt(b *testing.B, streams, buffer int) float64 {
	b.Helper()
	m, err := netsim.MeanThroughputMbps(netsim.CERNtoANL(), netsim.Transfer{
		FileBytes:   100 * netsim.MB,
		Streams:     streams,
		BufferBytes: buffer,
	}, 8)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkConclusionBufferDominates (C1): "proper TCP buffer size setting
// is the single most important factor in achieving good performance".
func BenchmarkConclusionBufferDominates(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		untuned := rateAt(b, 1, netsim.UntunedBufferBytes)
		tuned := rateAt(b, 1, netsim.TunedBufferBytes)
		gain = tuned / untuned
	}
	b.ReportMetric(gain, "x(tuned/untuned,1stream)")
}

// BenchmarkConclusionUntunedParallelEqualsTuned (C2): "the performance
// obtained from 10 streams with untuned buffers can be achieved with just
// 2-3 streams if the tuning is proper".
func BenchmarkConclusionUntunedParallelEqualsTuned(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		untuned10 := rateAt(b, 10, netsim.UntunedBufferBytes)
		tuned3 := rateAt(b, 3, netsim.TunedBufferBytes)
		ratio = untuned10 / tuned3
	}
	b.ReportMetric(ratio, "x(untuned10/tuned3)")
}

// BenchmarkConclusionParallelGain (C3): "2-3 tuned parallel streams will
// gain an additional 25% performance over a single tuned stream".
func BenchmarkConclusionParallelGain(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		one := rateAt(b, 1, netsim.TunedBufferBytes)
		two := rateAt(b, 2, netsim.TunedBufferBytes)
		three := rateAt(b, 3, netsim.TunedBufferBytes)
		best := two
		if three > best {
			best = three
		}
		gain = best/one - 1
	}
	b.ReportMetric(gain*100, "%gain(2-3streams)")
}

// BenchmarkConclusionUntunedCatchesUp (C4): "it is possible to get the same
// throughput as tuned buffers using untuned TCP buffers with enough
// parallel streams".
func BenchmarkConclusionUntunedCatchesUp(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		var untunedPeak float64
		for s := 1; s <= 10; s++ {
			if r := rateAt(b, s, netsim.UntunedBufferBytes); r > untunedPeak {
				untunedPeak = r
			}
		}
		var tunedPeak float64
		for s := 1; s <= 10; s++ {
			if r := rateAt(b, s, netsim.TunedBufferBytes); r > tunedPeak {
				tunedPeak = r
			}
		}
		ratio = untunedPeak / tunedPeak
	}
	b.ReportMetric(ratio, "x(untunedPeak/tunedPeak)")
}

// --- T-buffer: optimal buffer = RTT x bottleneck bandwidth [Tier00] --------

func BenchmarkOptimalBufferFormula(b *testing.B) {
	cfg := netsim.CERNtoANL()
	cfg.LossRate = 0
	opt := netsim.OptimalBufferBytes(cfg)
	buffers := []int{opt / 8, opt / 4, opt / 2, opt, 2 * opt, 4 * opt}
	for _, buf := range buffers {
		b.Run(fmt.Sprintf("buffer=%dKB", buf/1024), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				r, err := netsim.Simulate(cfg, netsim.Transfer{
					FileBytes: 100 * netsim.MB, Streams: 1, BufferBytes: buf,
				})
				if err != nil {
					b.Fatal(err)
				}
				rate = r.ThroughputMbps
			}
			b.ReportMetric(rate, "Mbps")
		})
	}
	b.Logf("formula optimum: %d bytes (RTT x available bandwidth)", opt)
}

// --- E-sparse: Section 5.1, file vs object replication for selections ------

// BenchmarkSparseSelectionFileVsObject evaluates the paper's example at
// full scale analytically (10^6 of 10^9 events, 10 KB objects) and at
// laptop scale empirically with materialized database files.
func BenchmarkSparseSelectionFileVsObject(b *testing.B) {
	b.Run("paper-scale-analytic", func(b *testing.B) {
		var m workload.SparseModel
		for i := 0; i < b.N; i++ {
			m = workload.SparseModel{
				Events:         1_000_000_000,
				Selected:       1_000_000,
				ObjectsPerFile: 1000,
				ObjectSize:     10_000,
			}
			_ = m.Overhead()
		}
		b.ReportMetric(m.ObjectBytes()/1e9, "GB-object-repl")
		b.ReportMetric(m.FileBytes()/1e9, "GB-file-repl")
		b.ReportMetric(m.Overhead(), "x-overhead")
		b.ReportMetric(m.ProbMajoritySelected(), "P(file>50%selected)")
	})

	b.Run("materialized", func(b *testing.B) {
		dir := b.TempDir()
		ds, err := workload.Generate(workload.Config{
			Events:         5000,
			Types:          []workload.ObjectSpec{{Type: "esd", Size: 2048}},
			ObjectsPerFile: 100,
			Placement:      workload.ByType,
			Dir:            dir,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var objBytes, fileBytes int64
		for i := 0; i < b.N; i++ {
			sel := workload.SelectEvents(5000, 50, int64(i+1))
			oids := ds.ObjectsFor(sel, "esd")
			objBytes = int64(len(oids)) * 2048
			_, fileBytes = ds.FilesTouched(oids)
		}
		b.ReportMetric(float64(fileBytes)/float64(objBytes), "x-overhead")
	})
}

// --- E-pipeline: Section 5.2/5.3, pipelined copy+transfer ablation ---------

// BenchmarkObjectPipelineAblation replicates the same object selection with
// and without pipelining over a WAN-shaped link, measuring the response
// time gain of overlapping the copier with the transfer.
func BenchmarkObjectPipelineAblation(b *testing.B) {
	link := wan.NewLink(200, 10*time.Millisecond) // fast-but-latent WAN

	run := func(b *testing.B, pipelined bool) {
		g, err := testbed.NewGrid(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close()
		objrep.AllowServiceUseAll(g.ACL)
		src, err := g.AddSite("cern.ch", testbed.SiteOptions{WithFederation: true})
		if err != nil {
			b.Fatal(err)
		}
		dest, err := g.AddSite("anl.gov", testbed.SiteOptions{
			WithFederation: true,
			DialFunc:       link.Dialer(nil),
		})
		if err != nil {
			b.Fatal(err)
		}
		ds, err := workload.Generate(workload.Config{
			Events:         64,
			Types:          []workload.ObjectSpec{{Type: "esd", Size: 16 * 1024}},
			ObjectsPerFile: 16,
			Placement:      workload.ByType,
			Dir:            filepath.Join(src.DataDir(), "dataset"),
			Seed:           7,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, fm := range ds.Files {
			if _, err := src.Federation().Attach(fm.Path); err != nil {
				b.Fatal(err)
			}
		}
		if err := objrep.EnableService(src); err != nil {
			b.Fatal(err)
		}
		sel := workload.SelectEvents(64, 32, 3)
		oids := ds.ObjectsFor(sel, "esd")

		b.ResetTimer()
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			r := &objrep.Replicator{
				Dest: dest, SourceCtl: src.Addr(), SourceName: "cern.ch",
				BatchSize: 8, Pipelined: pipelined,
			}
			stats, err := r.Replicate(oids)
			if err != nil {
				b.Fatal(err)
			}
			elapsed = stats.Elapsed
			b.StopTimer()
			// Reset destination state for the next iteration.
			for _, fi := range dest.LocalFiles() {
				dest.RemoveLocal(fi.LFN)
			}
			for _, id := range dest.Federation().Databases() {
				dest.Federation().Detach(id)
			}
			b.StartTimer()
		}
		b.ReportMetric(elapsed.Seconds()*1000, "ms/cycle")
	}

	b.Run("sequential", func(b *testing.B) { run(b, false) })
	b.Run("pipelined", func(b *testing.B) { run(b, true) })
}

// --- E-e2e: full GDMP replication over emulated WAN sockets ----------------

func BenchmarkEndToEndReplication(b *testing.B) {
	for _, cse := range []struct {
		name    string
		mbps    float64
		rtt     time.Duration
		streams int
		sizeMB  int
	}{
		{"loopback/1MB", 0, 0, 2, 1},
		{"wan25Mbps/1MB/2streams", 25, 20 * time.Millisecond, 2, 1},
		{"wan25Mbps/1MB/4streams", 25, 20 * time.Millisecond, 4, 1},
	} {
		b.Run(cse.name, func(b *testing.B) {
			g, err := testbed.NewGrid(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			var dialFunc func(network, addr string) (net.Conn, error)
			if cse.mbps > 0 {
				dialFunc = wan.NewLink(cse.mbps, cse.rtt).Dialer(nil)
			}
			cern, err := g.AddSite("cern.ch", testbed.SiteOptions{Parallelism: cse.streams})
			if err != nil {
				b.Fatal(err)
			}
			anl, err := g.AddSite("anl.gov", testbed.SiteOptions{
				Parallelism: cse.streams,
				DialFunc:    dialFunc,
			})
			if err != nil {
				b.Fatal(err)
			}
			data := testbed.MakeData(cse.sizeMB*1024*1024, 1)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rel := fmt.Sprintf("bench/f%06d.db", i)
				if _, err := g.WriteSiteFile("cern.ch", rel, data); err != nil {
					b.Fatal(err)
				}
				pf, err := cern.Publish(rel, core.PublishOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := anl.Get(pf.LFN); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(data)))
		})
	}
}

// --- E-stage: Section 4.4 staging, cold vs warm disk pool ------------------

func BenchmarkMSSStaging(b *testing.B) {
	g, err := testbed.NewGrid(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	cern, err := g.AddSite("cern.ch", testbed.SiteOptions{
		WithMSS:      true,
		MountLatency: 20 * time.Millisecond, // scaled-down tape mount
		TapeRateMBps: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	anl, err := g.AddSite("anl.gov", testbed.SiteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	data := testbed.MakeData(512*1024, 2)
	if _, err := g.WriteSiteFile("cern.ch", "cold.db", data); err != nil {
		b.Fatal(err)
	}
	pf, err := cern.Publish("cold.db", core.PublishOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if err := cern.ArchiveLocal(pf.LFN); err != nil {
		b.Fatal(err)
	}
	poolPath := filepath.Join(cern.DataDir(), "cold.db")

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			os.Remove(poolPath) // force a tape stage
			os.RemoveAll(filepath.Join(anl.DataDir(), "cold.db"))
			anlReset(anl, pf.LFN)
			b.StartTimer()
			if err := anl.Get(pf.LFN); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			os.RemoveAll(filepath.Join(anl.DataDir(), "cold.db"))
			anlReset(anl, pf.LFN)
			b.StartTimer()
			if err := anl.Get(pf.LFN); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
}

// anlReset forgets a replica at the destination so Get re-fetches it.
func anlReset(site *core.Site, lfn string) {
	if site.HasFile(lfn) {
		site.RemoveLocal(lfn)
	}
}

// --- ablation: associated-file closure (Section 2.1) -----------------------

// BenchmarkAssociationClosure measures the cost of computing the
// associated-files closure that keeps navigation intact, as a function of
// the cross-file association chain length.
func BenchmarkAssociationClosure(b *testing.B) {
	for _, chain := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("chain=%d", chain), func(b *testing.B) {
			dir := b.TempDir()
			fed := objectstore.NewFederation()
			defer fed.Close()
			for i := chain; i >= 1; i-- {
				path := filepath.Join(dir, fmt.Sprintf("db%d.odb", i))
				w, err := objectstore.Create(path, uint32(i))
				if err != nil {
					b.Fatal(err)
				}
				obj := &objectstore.Object{OID: objectstore.OID{Slot: 1}, Type: "t", Data: []byte("x")}
				if i < chain {
					obj.Assocs = []objectstore.OID{{DB: uint32(i + 1), Slot: 1}}
				}
				if err := w.Add(obj); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				if _, err := fed.Attach(path); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				closure, _, err := fed.AssociationClosure([]uint32{1})
				if err != nil {
					b.Fatal(err)
				}
				if len(closure) != chain {
					b.Fatalf("closure = %d", len(closure))
				}
			}
		})
	}
}

// --- micro-benchmarks: substrate costs --------------------------------------

// BenchmarkGridFTPLoopback measures the raw socket implementation's
// throughput on loopback at several stream counts (protocol overhead, not
// WAN behavior — that is netsim's job).
func BenchmarkGridFTPLoopback(b *testing.B) {
	ca, err := gsi.NewCA("bench", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	roots := []*gsi.Certificate{ca.Certificate()}
	serverCred, err := ca.Issue("gridftpd/bench", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	clientCred, err := ca.Issue("bench-client", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	acl := gsi.NewACL()
	acl.AllowAll(gridftp.OpRead, gridftp.OpWrite)
	root := b.TempDir()
	const size = 8 << 20
	if err := os.WriteFile(filepath.Join(root, "bench.db"), testbed.MakeData(size, 4), 0o644); err != nil {
		b.Fatal(err)
	}
	srv, err := gridftp.NewServer(gridftp.ServerConfig{
		Root: root, Cred: serverCred, TrustRoots: roots, ACL: acl,
	})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	for _, streams := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			cl, err := gridftp.Dial(ln.Addr().String(), clientCred, roots,
				gridftp.WithParallelism(streams))
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			dst := make(writerAtBuffer, size)
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Get("bench.db", dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writerAtBuffer is a fixed in-memory io.WriterAt.
type writerAtBuffer []byte

func (w writerAtBuffer) WriteAt(p []byte, off int64) (int, error) {
	return copy(w[off:], p), nil
}

func BenchmarkReplicaCatalogOps(b *testing.B) {
	cat := replica.New(replica.Options{})
	for i := 0; i < 10_000; i++ {
		cat.Register(fmt.Sprintf("lfn://bench/f%06d", i), map[string]string{
			replica.AttrSize: fmt.Sprint(i * 1000),
		})
	}
	b.Run("lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := cat.ReadEntry(fmt.Sprintf("lfn://bench/f%06d", i%10_000), func(*replica.LogicalFile) {}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := cat.Query("(size>=9000000)")
			if err != nil {
				b.Fatal(err)
			}
			if len(got) == 0 {
				b.Fatal("empty result")
			}
		}
	})
}

func BenchmarkObjectStoreRead(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.odb")
	w, err := objectstore.Create(path, 1)
	if err != nil {
		b.Fatal(err)
	}
	payload := testbed.MakeData(4096, 3)
	const n = 1000
	for i := uint32(1); i <= n; i++ {
		if err := w.Add(&objectstore.Object{OID: objectstore.OID{Slot: i}, Type: "t", Event: uint64(i), Data: payload}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	db, err := objectstore.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Read(uint32(i%n) + 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(4096)
}
