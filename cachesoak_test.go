// Cache-soak harness: Zipf-skewed read traffic against MSS-backed consumer
// sites, proving the disk pool behaves as the paper's "data transfer cache
// for the Grid" (Section 4.4) under sustained load. Contract under test:
//
//   - a sustained hit-rate floor at both Zipf skews (more skew → more
//     hits, the reason a cache in front of WAN pulls pays off at all);
//   - pool occupancy never exceeds the configured capacity, not even
//     transiently between an access and its eviction;
//   - every eviction of a cache-only replica withdraws the matching
//     replica-catalog location — the catalog never advertises bytes the
//     pool threw away;
//   - the gdmp_pool_* metric family accounts for every access exactly,
//     including the p50/p99 stage-latency histogram.
//
// Every test logs its seed; set CACHE_SEED to replay a run. With
// BENCH_CACHE_OUT set, the soak writes BENCH_cache.json comparing hit rate
// and stage latency across LRU vs FIFO at two skews.
package gdmp_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/mss"
	"gdmp/internal/obs"
	"gdmp/internal/testbed"
	"gdmp/internal/workload"
)

// cacheSeed returns the run's randomization seed (overridable with
// CACHE_SEED) and logs it so a failure replays exactly.
func cacheSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(20260805)
	if s := os.Getenv("CACHE_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CACHE_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("cache seed: %d (set CACHE_SEED to replay)", seed)
	return seed
}

// Soak topology: one producer holding all 64 files, two consumer sites
// whose pools hold 24 files' worth of bytes each. 400 accesses split
// across the consumers re-request the catalog under Zipf popularity.
const (
	soakFiles     = 64
	soakFileBytes = 4096
	soakRequests  = 400
	soakPoolFiles = 24
)

// cacheRunResult is one (policy, skew) soak outcome, and one entry of the
// BENCH_cache.json runs array.
type cacheRunResult struct {
	Policy     string  `json:"policy"`
	ZipfS      float64 `json:"zipf_s"`
	Requests   int     `json:"requests"`
	Hits       int     `json:"hits"`
	Misses     int     `json:"misses"`
	Evictions  int     `json:"evictions"`
	HitRate    float64 `json:"hit_rate"`
	StageP50Ms float64 `json:"stage_p50_ms"`
	StageP99Ms float64 `json:"stage_p99_ms"`
}

// runCacheSoak drives one full Zipf trace against a fresh grid and checks
// every invariant that must hold regardless of policy or skew.
func runCacheSoak(t *testing.T, seed int64, policy mss.EvictionPolicy, polName string, zipfS float64) cacheRunResult {
	t.Helper()
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	tr, err := workload.GenerateTrace(workload.TraceConfig{
		Files:       soakFiles,
		FileBytes:   soakFileBytes,
		S:           zipfS,
		Requests:    soakRequests,
		Sites:       []string{"anl.gov", "fnal.gov"},
		Collections: 4,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each consumer records its gdmp_pool_* family into its own registry;
	// the run's figures, which the bench reports, are their sums.
	const capacity = soakPoolFiles * soakFileBytes
	consumers := make(map[string]*core.Site, 2)
	for _, name := range tr.Cfg.Sites {
		c, err := g.AddSite(name, testbed.SiteOptions{
			WithMSS:     true,
			MSSCapacity: capacity,
			MSSPolicy:   policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		consumers[name] = c
	}

	// The producer's catalog: many small LFNs grouped in popularity-block
	// collections.
	lfns := make([]string, soakFiles)
	for i := 0; i < soakFiles; i++ {
		rel := tr.FileName(i)
		if _, err := g.WriteSiteFile(prod.Name(), rel, testbed.MakeData(soakFileBytes, seed+int64(i))); err != nil {
			t.Fatal(err)
		}
		pf, err := prod.Publish(rel, core.PublishOptions{Collection: tr.Collection(i)})
		if err != nil {
			t.Fatal(err)
		}
		lfns[i] = pf.LFN
	}

	// Drive the trace. Capacity is checked after every single access: an
	// overshoot that a later eviction would mask still fails the run.
	for i, a := range tr.Accesses {
		c := consumers[a.Site]
		if err := c.Get(lfns[a.File]); err != nil {
			t.Fatalf("access %d: get %s at %s: %v", i, lfns[a.File], a.Site, err)
		}
		if used := c.Pool().Used(); used > capacity {
			t.Fatalf("access %d: pool occupancy %d exceeds capacity %d at %s", i, used, capacity, a.Site)
		}
	}

	var hits, misses, evictions int
	var stageBounds []float64
	var stageCounts []int64
	for name, c := range consumers {
		pm := obs.NewPoolMetrics(c.Metrics())
		siteMisses, siteEvictions := int(pm.Misses.Value()), int(pm.Evictions.Value())
		hits += int(pm.Hits.Value())
		misses += siteMisses
		evictions += siteEvictions

		// Eviction accounting closes exactly: every miss added one file
		// to the pool, so what is not resident now was evicted.
		if want := siteMisses - len(c.Pool().PoolContents()); siteEvictions != want {
			t.Errorf("%s: %d evictions, want %d (= %d misses - %d residents)",
				name, siteEvictions, want, siteMisses, len(c.Pool().PoolContents()))
		}

		// One stage-latency observation per miss (each miss is one WAN
		// pull whose fetch latency was recorded), and the capacity gauge
		// holds the configured size.
		if got := pm.StageSeconds.Count(); got != int64(siteMisses) {
			t.Errorf("%s: gdmp_pool_stage_seconds_count = %d, want %d", name, got, siteMisses)
		}
		if got := pm.Capacity.Value(); got != capacity {
			t.Errorf("%s: gdmp_pool_capacity_bytes = %d, want %d", name, got, capacity)
		}
		bounds, counts := pm.StageSeconds.Snapshot()
		if stageCounts == nil {
			stageBounds, stageCounts = bounds, make([]int64, len(counts))
		}
		for i, n := range counts {
			stageCounts[i] += n
		}

		// Eviction ↔ RC-withdrawal consistency: the replica catalog lists
		// this consumer for exactly the files it still holds.
		for i, lfn := range lfns {
			locs, err := g.Catalog.Locations(lfn)
			if err != nil {
				t.Fatalf("locations of %s: %v", lfn, err)
			}
			inRC := false
			for _, loc := range locs {
				if strings.Contains(loc, c.DataAddr()) {
					inRC = true
					break
				}
			}
			if has := c.HasFile(lfn); has != inRC {
				t.Errorf("%s: file %d (%s): resident=%v but RC location present=%v",
					name, i, lfn, has, inRC)
			}
		}
	}
	if hits+misses != soakRequests {
		t.Errorf("hits %d + misses %d != %d accesses", hits, misses, soakRequests)
	}

	// The summed histograms yield the run's latency quantiles.
	res := cacheRunResult{
		Policy:     polName,
		ZipfS:      zipfS,
		Requests:   soakRequests,
		Hits:       hits,
		Misses:     misses,
		Evictions:  evictions,
		HitRate:    float64(hits) / float64(soakRequests),
		StageP50Ms: obs.BucketQuantile(stageBounds, stageCounts, 0.50) * 1000,
		StageP99Ms: obs.BucketQuantile(stageBounds, stageCounts, 0.99) * 1000,
	}
	t.Logf("%s s=%.1f: %.1f%% hit rate (%d hits, %d misses, %d evictions), stage p50 %.2fms p99 %.2fms",
		polName, zipfS, 100*res.HitRate, hits, misses, evictions, res.StageP50Ms, res.StageP99Ms)
	return res
}

// bucketQuantile is obs.BucketQuantile over a histogram's snapshot.
func bucketQuantile(h *obs.Histogram, q float64) float64 {
	bounds, counts := h.Snapshot()
	return obs.BucketQuantile(bounds, counts, q)
}

// TestCacheSoakZipf is the acceptance scenario: the full LRU/FIFO × skew
// matrix, with hit-rate floors per combination and the skew ordering that
// makes a popularity cache worth running.
func TestCacheSoakZipf(t *testing.T) {
	seed := cacheSeed(t)
	combos := []struct {
		policy  mss.EvictionPolicy
		polName string
		zipfS   float64
		floor   float64
	}{
		{mss.LRU, "lru", 1.2, 0.55},
		{mss.LRU, "lru", 0.8, 0.35},
		{mss.FIFO, "fifo", 1.2, 0.45},
		{mss.FIFO, "fifo", 0.8, 0.30},
	}
	runs := make([]cacheRunResult, 0, len(combos))
	hitBySkew := make(map[string]map[float64]float64)
	for _, c := range combos {
		res := runCacheSoak(t, seed, c.policy, c.polName, c.zipfS)
		if res.HitRate < c.floor {
			t.Errorf("%s s=%.1f: hit rate %.3f below the %.2f floor", c.polName, c.zipfS, res.HitRate, c.floor)
		}
		if hitBySkew[c.polName] == nil {
			hitBySkew[c.polName] = make(map[float64]float64)
		}
		hitBySkew[c.polName][c.zipfS] = res.HitRate
		runs = append(runs, res)
	}
	// More skew must mean more hits under either policy — the workload
	// property the cache exists to exploit.
	for pol, by := range hitBySkew {
		if by[1.2] <= by[0.8] {
			t.Errorf("%s: hit rate %.3f at s=1.2 not above %.3f at s=0.8", pol, by[1.2], by[0.8])
		}
	}

	if out := os.Getenv("BENCH_CACHE_OUT"); out != "" {
		doc := struct {
			Benchmark string           `json:"benchmark"`
			Seed      int64            `json:"seed"`
			Files     int              `json:"files"`
			FileBytes int              `json:"file_bytes"`
			PoolFiles int              `json:"pool_capacity_files"`
			Runs      []cacheRunResult `json:"runs"`
		}{
			Benchmark: "disk-pool cache under Zipf traffic",
			Seed:      seed,
			Files:     soakFiles,
			FileBytes: soakFileBytes,
			PoolFiles: soakPoolFiles,
			Runs:      runs,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
}

// TestCachePrefetchHotCollection proves the demand-triggered prefetcher:
// after the configured number of misses land in one collection, the
// consumer brings in the remaining members without being asked.
func TestCachePrefetchHotCollection(t *testing.T) {
	cacheSeed(t)
	g, err := testbed.NewGrid(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
		WithMSS:     true,
		MSSCapacity: 1 << 20,
		Prefetch:    3,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	const members = 6
	lfns := make([]string, members)
	for i := 0; i < members; i++ {
		rel := fmt.Sprintf("hot/f%d.dat", i)
		if _, err := g.WriteSiteFile(prod.Name(), rel, testbed.MakeData(2048, int64(i))); err != nil {
			t.Fatal(err)
		}
		pf, err := prod.Publish(rel, core.PublishOptions{Collection: "hot"})
		if err != nil {
			t.Fatal(err)
		}
		lfns[i] = pf.LFN
	}

	// Three demand misses on the collection cross the threshold.
	for i := 0; i < 3; i++ {
		if err := cons.Get(lfns[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The prefetcher pulls the rest on its own.
	waitUntil(t, 15*time.Second, "prefetch of the remaining collection members", func() bool {
		for _, lfn := range lfns[3:] {
			if !cons.HasFile(lfn) {
				return false
			}
		}
		return true
	})
	if got := metricValue(reg.Text(), "gdmp_pool_prefetches_total"); got < float64(members-3) {
		t.Errorf("gdmp_pool_prefetches_total = %v, want >= %d", got, members-3)
	}
}
