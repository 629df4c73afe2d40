// Ablation benchmarks for the design choices DESIGN.md calls out: stream
// count under loss, disk-pool eviction policy under Zipf access, striped
// transfers, and the end-to-end analysis funnel.
package gdmp_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"gdmp/internal/mss"
	"gdmp/internal/netsim"
	"gdmp/internal/objectstore"
	"gdmp/internal/objrep"
	"gdmp/internal/obs"
	"gdmp/internal/workload"
)

// BenchmarkOptimalStreamCount reproduces the paper's operational finding:
// "We usually find that 4-8 streams is optimal." The sweet spot emerges
// from the model: more streams recover loss faster, too many provoke
// congestion losses on the shared bottleneck.
func BenchmarkOptimalStreamCount(b *testing.B) {
	for _, loss := range []float64{0, 5e-5, 5e-4} {
		b.Run(fmt.Sprintf("loss=%g", loss), func(b *testing.B) {
			cfg := netsim.CERNtoANL()
			cfg.LossRate = loss
			var bestStreams int
			var bestRate float64
			for i := 0; i < b.N; i++ {
				bestStreams, bestRate = 0, 0
				for s := 1; s <= 12; s++ {
					m, err := netsim.MeanThroughputMbps(cfg, netsim.Transfer{
						FileBytes: 100 * netsim.MB, Streams: s,
						BufferBytes: netsim.TunedBufferBytes,
					}, 6)
					if err != nil {
						b.Fatal(err)
					}
					if m > bestRate {
						bestRate, bestStreams = m, s
					}
				}
			}
			b.ReportMetric(float64(bestStreams), "optimal-streams")
			b.ReportMetric(bestRate, "Mbps-at-optimum")
		})
	}
}

// TestOptimalStreamsInPaperRange asserts the paper's 4-8 finding holds for
// the lossy tuned configuration.
func TestOptimalStreamsInPaperRange(t *testing.T) {
	cfg := netsim.CERNtoANL()
	cfg.LossRate = 5e-4 // a lossy day on the production link
	best, bestRate := 0, 0.0
	for s := 1; s <= 12; s++ {
		m, err := netsim.MeanThroughputMbps(cfg, netsim.Transfer{
			FileBytes: 100 * netsim.MB, Streams: s,
			BufferBytes: netsim.TunedBufferBytes,
		}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if m > bestRate {
			bestRate, best = m, s
		}
	}
	if best < 3 || best > 10 {
		t.Fatalf("optimal stream count %d (%.1f Mbps) outside the paper's 4-8 neighborhood", best, bestRate)
	}
}

// BenchmarkStripedTransfer measures the Section 3.2 striping feature in the
// model: m x n host striping overcomes a per-host NIC limit.
func BenchmarkStripedTransfer(b *testing.B) {
	cfg := netsim.CERNtoANL()
	cfg.CrossTrafficMbps = 0 // full 45 Mbps available
	slowHost := netsim.HostProfile{NICMbps: 15}
	for _, hosts := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("hosts=%dx%d", hosts, hosts), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				r, err := netsim.SimulateStriped(cfg, netsim.StripedTransfer{
					FileBytes:   100 * netsim.MB,
					SourceHosts: hosts, DestHosts: hosts,
					StreamsPerPair: 2,
					BufferBytes:    netsim.TunedBufferBytes,
					Source:         slowHost, Dest: slowHost,
				})
				if err != nil {
					b.Fatal(err)
				}
				rate = r.ThroughputMbps
			}
			b.ReportMetric(rate, "Mbps")
		})
	}
}

// BenchmarkFanOut measures the producer-uplink contention when a published
// file fans out to several subscribers at once (the paper's
// producer-consumer model with multiple consumer sites).
func BenchmarkFanOut(b *testing.B) {
	cfg := netsim.CERNtoANL()
	for _, subs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("subscribers=%d", subs), func(b *testing.B) {
			var worst time.Duration
			for i := 0; i < b.N; i++ {
				res, err := netsim.FanOut(cfg, 25*netsim.MB, 3, netsim.TunedBufferBytes, subs, 0)
				if err != nil {
					b.Fatal(err)
				}
				worst = 0
				for _, r := range res {
					if r.Duration > worst {
						worst = r.Duration
					}
				}
			}
			b.ReportMetric(worst.Seconds(), "s-slowest-subscriber")
		})
	}
}

// BenchmarkPoolEvictionPolicy compares LRU and FIFO disk-pool eviction
// under a Zipf-skewed access stream, the cache ablation of DESIGN.md.
// Replication is motivated by exactly this skew [Bres99].
func BenchmarkPoolEvictionPolicy(b *testing.B) {
	const (
		files    = 60
		fileSize = 64 * 1024
		capacity = files * fileSize / 4 // pool holds a quarter of the set
		accesses = 400
	)
	run := func(b *testing.B, policy mss.EvictionPolicy) {
		dir := b.TempDir()
		m, err := mss.New(mss.Config{
			TapeDir:      filepath.Join(dir, "tape"),
			PoolDir:      filepath.Join(dir, "pool"),
			PoolCapacity: capacity,
			Policy:       policy,
		})
		if err != nil {
			b.Fatal(err)
		}
		pm := obs.NewPoolMetrics(obs.NewRegistry())
		m.SetMetrics(pm)
		payload := make([]byte, fileSize)
		for i := 0; i < files; i++ {
			if err := m.PutTape(fmt.Sprintf("f%03d", i), payload); err != nil {
				b.Fatal(err)
			}
		}
		sequence := workload.SampleZipf(files, 1.1, accesses, 7)
		b.ResetTimer()
		var hitRate float64
		for i := 0; i < b.N; i++ {
			for _, idx := range sequence {
				name := fmt.Sprintf("f%03d", idx)
				if _, err := m.StageContext(context.Background(), name); err != nil {
					b.Fatal(err)
				}
				m.Release(name)
			}
			hits, misses := pm.Hits.Value(), pm.Misses.Value()
			hitRate = float64(hits) / float64(hits+misses)
		}
		b.ReportMetric(hitRate*100, "%hit")
	}
	b.Run("LRU", func(b *testing.B) { run(b, mss.LRU) })
	b.Run("FIFO", func(b *testing.B) { run(b, mss.FIFO) })
}

// TestLRUBeatsFIFOUnderZipf asserts the ablation's direction: with skewed
// access, recency-based eviction keeps the hot files and wins.
func TestLRUBeatsFIFOUnderZipf(t *testing.T) {
	const (
		files    = 60
		fileSize = 8 * 1024
		capacity = files * fileSize / 4
		accesses = 600
	)
	hitRate := func(policy mss.EvictionPolicy) float64 {
		dir := t.TempDir()
		m, err := mss.New(mss.Config{
			TapeDir:      filepath.Join(dir, "tape"),
			PoolDir:      filepath.Join(dir, "pool"),
			PoolCapacity: capacity,
			Policy:       policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		pm := obs.NewPoolMetrics(obs.NewRegistry())
		m.SetMetrics(pm)
		payload := make([]byte, fileSize)
		for i := 0; i < files; i++ {
			if err := m.PutTape(fmt.Sprintf("f%03d", i), payload); err != nil {
				t.Fatal(err)
			}
		}
		for _, idx := range workload.SampleZipf(files, 1.2, accesses, 11) {
			name := fmt.Sprintf("f%03d", idx)
			if _, err := m.StageContext(context.Background(), name); err != nil {
				t.Fatal(err)
			}
			m.Release(name)
			// FIFO victims need distinguishable stage times.
			time.Sleep(time.Microsecond)
		}
		hits, misses := pm.Hits.Value(), pm.Misses.Value()
		return float64(hits) / float64(hits+misses)
	}
	lru := hitRate(mss.LRU)
	fifo := hitRate(mss.FIFO)
	if lru <= fifo {
		t.Fatalf("LRU hit rate %.3f should beat FIFO %.3f under Zipf access", lru, fifo)
	}
}

// BenchmarkRecluster measures the [Holt98] reclustering ablation: the cost
// of rewriting a dataset by type, and the file-locality gain a type-wise
// sparse selection sees afterwards.
func BenchmarkRecluster(b *testing.B) {
	ds, err := workload.Generate(workload.Config{
		Events:         500,
		Types:          []workload.ObjectSpec{{Type: "tag", Size: 64}, {Type: "esd", Size: 2048}},
		ObjectsPerFile: 50,
		Placement:      workload.ByEvent, // pessimal for type scans
		Dir:            b.TempDir(),
		Seed:           13,
	})
	if err != nil {
		b.Fatal(err)
	}
	fed := objectstore.NewFederation()
	defer fed.Close()
	for _, fm := range ds.Files {
		if _, err := fed.Attach(fm.Path); err != nil {
			b.Fatal(err)
		}
	}
	filesHolding := func(f *objectstore.Federation, typ string) int {
		dbs := make(map[uint32]bool)
		f.Scan(func(m objectstore.Meta) bool {
			if m.Type == typ {
				dbs[m.OID.DB] = true
			}
			return true
		})
		return len(dbs)
	}
	before := filesHolding(fed, "esd")
	b.ResetTimer()
	var after int
	for i := 0; i < b.N; i++ {
		out := b.TempDir()
		res, err := objrep.Recluster(fed, out, objrep.ClusterByType, 50, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		newFed := objectstore.NewFederation()
		for _, p := range res.Files {
			newFed.Attach(p)
		}
		after = filesHolding(newFed, "esd")
		newFed.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(before), "files-before")
	b.ReportMetric(float64(after), "files-after")
}

// BenchmarkAnalysisFunnel drives the Section 5.1 funnel over a materialized
// dataset: per step, the bytes each strategy would move across the WAN.
func BenchmarkAnalysisFunnel(b *testing.B) {
	const events = 2000
	types := []workload.ObjectSpec{
		{Type: "tag", Size: 64},
		{Type: "aod", Size: 512},
		{Type: "esd", Size: 4096},
		{Type: "raw", Size: 32768},
	}
	ds, err := workload.Generate(workload.Config{
		Events:         events,
		Types:          types,
		ObjectsPerFile: 200,
		Placement:      workload.ByType,
		Dir:            b.TempDir(),
		Seed:           3,
	})
	if err != nil {
		b.Fatal(err)
	}
	steps := workload.Funnel(events, types, 4)
	b.ResetTimer()
	for _, step := range steps {
		step := step
		b.Run(fmt.Sprintf("step=%s-%devents", step.ObjectType, step.Events), func(b *testing.B) {
			var objBytes, fileBytes int64
			for i := 0; i < b.N; i++ {
				sel := workload.SelectEvents(events, step.Events, int64(i+1))
				oids := ds.ObjectsFor(sel, step.ObjectType)
				var size int64
				for _, spec := range types {
					if spec.Type == step.ObjectType {
						size = int64(spec.Size)
					}
				}
				objBytes = int64(len(oids)) * size
				_, fileBytes = ds.FilesTouched(oids)
			}
			b.ReportMetric(float64(objBytes)/1e6, "MB-object-repl")
			b.ReportMetric(float64(fileBytes)/1e6, "MB-file-repl")
			if objBytes > 0 {
				b.ReportMetric(float64(fileBytes)/float64(objBytes), "x-overhead")
			}
		})
	}
}

// TestFunnelOverheadGrowsAsSelectionShrinks checks the funnel's economics:
// the sparser the selection, the worse file replication gets.
func TestFunnelOverheadGrowsAsSelectionShrinks(t *testing.T) {
	const events = 2000
	ds, err := workload.Generate(workload.Config{
		Events:         events,
		Types:          []workload.ObjectSpec{{Type: "esd", Size: 1024}},
		ObjectsPerFile: 100,
		Placement:      workload.ByType,
		Dir:            t.TempDir(),
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	overhead := func(selected int) float64 {
		sel := workload.SelectEvents(events, selected, 9)
		oids := ds.ObjectsFor(sel, "esd")
		_, fileBytes := ds.FilesTouched(oids)
		return float64(fileBytes) / float64(int64(len(oids))*1024)
	}
	dense := overhead(events / 2) // 50% selection
	sparse := overhead(events / 100)
	if sparse <= dense {
		t.Fatalf("overhead should grow as selection shrinks: dense %.2f, sparse %.2f", dense, sparse)
	}
	if dense > 3 {
		t.Fatalf("dense selection overhead %.2f implausibly high", dense)
	}
}
