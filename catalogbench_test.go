// Catalog benchmark: the sharded central catalog under a million-LFN
// corpus. Loads ≥1M logical files, sustains a lookup storm, and measures
// lookup throughput under journaled write load against both the sharded
// catalog and the historical single-mutex baseline (Shards: 1).
//
// The run is gated behind BENCH_CATALOG_OUT so `go test ./...` stays
// fast:
//
//	BENCH_CATALOG_OUT=BENCH_catalog.json go test -run TestCatalogBenchmark -v .
//
// `make bench-catalog` wraps exactly that; CI runs it and uploads the
// JSON alongside BENCH_pull and BENCH_cache.
package gdmp_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"gdmp/internal/obs"
	"gdmp/internal/replica"
)

const (
	catBenchLFNs        = 1_000_000
	catBenchLookups     = 500_000                // total lookups in the throughput storm
	catBenchContended   = 20_000                 // lookups per contended run
	catBenchJournalHold = 200 * time.Microsecond // simulated WAL-append hold under the write lock
)

// catBenchResult is the BENCH_catalog.json document.
type catBenchResult struct {
	Benchmark string `json:"benchmark"`
	LFNs      int    `json:"lfns"`
	Shards    int    `json:"shards"`
	Workers   int    `json:"workers"`

	LoadSeconds   float64 `json:"load_seconds"`
	LookupsPerSec float64 `json:"lookups_per_sec"`
	LookupP99Us   float64 `json:"lookup_p99_us"`

	// Lookup throughput while a writer journals mutations (the write
	// lock is held across the simulated WAL append), sharded vs the
	// historical single-mutex catalog.
	JournalHoldUs          float64 `json:"journal_hold_us"`
	ContendedPerSecSharded float64 `json:"contended_lookups_per_sec_sharded"`
	ContendedPerSecSingle  float64 `json:"contended_lookups_per_sec_single_mutex"`
	ShardSpeedup           float64 `json:"shard_speedup"`
}

func catBenchLFN(i int) string {
	return fmt.Sprintf("lfn://bench.cern.ch/run2026/f%07d.db", i)
}

// loadCatalog registers the full corpus into a fresh catalog with the
// given shard count, recording into reg.
func loadCatalog(t *testing.T, shards int, reg *obs.Registry) (*replica.Catalog, time.Duration) {
	t.Helper()
	c := replica.New(replica.Options{Shards: shards, Registry: reg})
	attrs := map[string]string{replica.AttrSize: "1048576"}
	start := time.Now()
	for i := 0; i < catBenchLFNs; i++ {
		if err := c.Register(catBenchLFN(i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	return c, time.Since(start)
}

// contendedLookups measures lookup throughput while a background writer
// continuously journals attribute mutations. The mutation hook runs
// under the shard's write lock (the journal-before-ack contract), so the
// simulated WAL-append hold is exactly the window a lookup on the same
// shard must wait out. With one shard, every lookup sits behind every
// journaled write; with 64, only the 1/64 that hash alongside it — the
// serialization the RLS split removes, measurable even on one core
// because the hold is I/O wait, not CPU.
func contendedLookups(t *testing.T, c *replica.Catalog) float64 {
	t.Helper()
	c.OnMutate(func(replica.Mutation) error {
		time.Sleep(catBenchJournalHold)
		return nil
	})
	defer c.OnMutate(nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		touch := map[string]string{"touched": "1"}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.SetAttrs(catBenchLFN(rng.Intn(catBenchLFNs)), touch); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(2))
	start := time.Now()
	for i := 0; i < catBenchContended; i++ {
		if err := c.ReadEntry(catBenchLFN(rng.Intn(catBenchLFNs)), func(*replica.LogicalFile) {}); err != nil {
			t.Error(err)
			break
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	return float64(catBenchContended) / elapsed.Seconds()
}

func TestCatalogBenchmark(t *testing.T) {
	out := os.Getenv("BENCH_CATALOG_OUT")
	if out == "" {
		t.Skip("set BENCH_CATALOG_OUT=<path> to run the catalog RLS benchmark")
	}
	workers := runtime.GOMAXPROCS(0)

	// Phase 1: load the corpus into the sharded catalog.
	shardedReg := obs.NewRegistry()
	sharded, loadDur := loadCatalog(t, replica.DefaultShards, shardedReg)
	t.Logf("loaded %d LFNs into %d shards in %v", catBenchLFNs, sharded.ShardCount(), loadDur)
	if st := sharded.Stats(); st.Files != catBenchLFNs {
		t.Fatalf("catalog holds %d files, want %d", st.Files, catBenchLFNs)
	}

	// Phase 2: concurrent lookup storm on the full public Lookup path.
	var wg sync.WaitGroup
	perWorker := catBenchLookups / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < perWorker; i++ {
				if err := sharded.ReadEntry(catBenchLFN(rng.Intn(catBenchLFNs)), func(*replica.LogicalFile) {}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lookupsPerSec := float64(perWorker*workers) / time.Since(start).Seconds()
	p99us := bucketQuantile(shardedReg.Histogram(replica.RLSMetricsPrefix+"_lookup_seconds", "", nil), 0.99) * 1e6
	t.Logf("%.0f lookups/sec across %d workers (p99 %.1fus)", lookupsPerSec, workers, p99us)

	// Phase 3: lookups under journaled write load, sharded vs single mutex.
	shardedOps := contendedLookups(t, sharded)
	single, _ := loadCatalog(t, 1, obs.NewRegistry())
	singleOps := contendedLookups(t, single)
	speedup := shardedOps / singleOps
	t.Logf("contended lookups: sharded %.0f/sec, single-mutex %.0f/sec, speedup %.2fx",
		shardedOps, singleOps, speedup)

	res := catBenchResult{
		Benchmark: "catalog_rls",
		LFNs:      catBenchLFNs,
		Shards:    sharded.ShardCount(),
		Workers:   workers,

		LoadSeconds:   loadDur.Seconds(),
		LookupsPerSec: lookupsPerSec,
		LookupP99Us:   p99us,

		JournalHoldUs:          float64(catBenchJournalHold) / float64(time.Microsecond),
		ContendedPerSecSharded: shardedOps,
		ContendedPerSecSingle:  singleOps,
		ShardSpeedup:           speedup,
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)

	// Acceptance floors.
	if lookupsPerSec < 10_000 {
		t.Errorf("sustained %.0f lookups/sec < 10k floor", lookupsPerSec)
	}
	if speedup <= 1 {
		t.Errorf("sharded catalog (%.0f lookups/sec under write load) does not beat the single-mutex baseline (%.0f)",
			shardedOps, singleOps)
	}
}
