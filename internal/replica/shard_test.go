package replica

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"gdmp/internal/obs"
)

// seedFromEnv returns the run's property-test seed (overridable with the
// named env var) and logs it so a failure replays exactly.
func seedFromEnv(t *testing.T, env string) int64 {
	t.Helper()
	seed := int64(20260809)
	if s := os.Getenv(env); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("%s %q: %v", env, s, err)
		}
		seed = v
	}
	t.Logf("seed: %d (set %s to replay)", seed, env)
	return seed
}

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {100, 128},
	} {
		c := New(Options{Shards: tc.in})
		if got := c.ShardCount(); got != tc.want {
			t.Errorf("Shards=%d -> ShardCount() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestShardIndexStable(t *testing.T) {
	// The same LFN must always hash to the same shard, and all shards
	// must actually receive traffic under a realistic name distribution.
	hit := make([]bool, 16)
	for i := 0; i < 2000; i++ {
		lfn := fmt.Sprintf("lfn://site-%d.ch/run%d.db", i%7, i)
		idx := shardIndex(lfn, 16)
		if idx < 0 || idx >= 16 {
			t.Fatalf("shardIndex out of range: %d", idx)
		}
		if again := shardIndex(lfn, 16); again != idx {
			t.Fatalf("shardIndex unstable for %q: %d then %d", lfn, idx, again)
		}
		hit[idx] = true
	}
	for i, h := range hit {
		if !h {
			t.Errorf("shard %d never hit by 2000 LFNs", i)
		}
	}
}

// TestShardRebalanceProperty is the seeded rebalance property test: any
// catalog compacted under one shard count and reopened under another must hold
// exactly the same files, attrs, locations, and collections, with every
// entry living on the shard its hash names under the NEW layout.
func TestShardRebalanceProperty(t *testing.T) {
	seed := seedFromEnv(t, "RLS_SEED")
	rng := rand.New(rand.NewSource(seed))

	for round := 0; round < 5; round++ {
		fromShards := 1 << rng.Intn(6) // 1..32
		toShards := 1 << rng.Intn(6)
		n := 50 + rng.Intn(200)

		dir := t.TempDir()
		src, st := openTestStore(t, dir, fromShards)
		type entry struct {
			attrs map[string]string
			locs  []string
		}
		want := make(map[string]entry, n)
		for i := 0; i < n; i++ {
			lfn := fmt.Sprintf("lfn://site-%d.ch/round%d/f%04d", rng.Intn(5), round, i)
			attrs := map[string]string{AttrSize: fmt.Sprint(rng.Intn(1 << 20))}
			if err := src.Register(lfn, attrs); err != nil {
				t.Fatal(err)
			}
			e := entry{attrs: attrs}
			for r := 0; r < rng.Intn(3); r++ {
				pfn := fmt.Sprintf("gridftp://host%d:2811/%s", r, lfn)
				if err := src.AddReplica(lfn, pfn); err != nil {
					t.Fatal(err)
				}
				e.locs = append(e.locs, pfn)
			}
			want[lfn] = e
		}
		if err := src.CreateCollection("round"); err != nil {
			t.Fatal(err)
		}
		var members []string
		for lfn := range want {
			if rng.Intn(2) == 0 {
				if err := src.AddToCollection("round", lfn); err != nil {
					t.Fatal(err)
				}
				members = append(members, lfn)
			}
		}

		dst := reopenFromSnapshot(t, dir, st, toShards)

		if got := len(dst.Files()); got != n {
			t.Fatalf("seed=%d round=%d: %d files after %d->%d rebalance, want %d",
				seed, round, got, fromShards, toShards, n)
		}
		for lfn, e := range want {
			f, err := lookup(dst, lfn)
			if err != nil {
				t.Fatalf("seed=%d: Lookup(%s): %v", seed, lfn, err)
			}
			if f.Attrs[AttrSize] != e.attrs[AttrSize] {
				t.Fatalf("seed=%d: attrs differ for %s", seed, lfn)
			}
			locs, _ := dst.Locations(lfn)
			if len(locs) != len(e.locs) {
				t.Fatalf("seed=%d: locations differ for %s: %v vs %v", seed, lfn, locs, e.locs)
			}
		}
		got, err := dst.ListCollection("round")
		if err != nil || len(got) != len(members) {
			t.Fatalf("seed=%d: collection differs: %d vs %d (%v)", seed, len(got), len(members), err)
		}
		for i, sh := range dst.shards {
			sh.mu.RLock()
			for lfn := range sh.files {
				if w := shardIndex(lfn, dst.ShardCount()); w != i {
					t.Errorf("seed=%d: %s on shard %d, want %d", seed, lfn, i, w)
				}
			}
			sh.mu.RUnlock()
		}
	}
}

func TestConcurrentShardedMutation(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{Shards: 8, Registry: reg})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lfn := fmt.Sprintf("lfn://w%d.ch/f%04d", w, i)
				if err := c.Register(lfn, nil); err != nil {
					t.Errorf("Register: %v", err)
					return
				}
				if err := c.AddReplica(lfn, "gridftp://h:1/"+lfn); err != nil {
					t.Errorf("AddReplica: %v", err)
					return
				}
				if _, err := lookup(c, lfn); err != nil {
					t.Errorf("Lookup: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(c.Files()); got != workers*per {
		t.Fatalf("%d files, want %d", got, workers*per)
	}
	st := c.Stats()
	if st.Files != workers*per || st.Replicas != workers*per {
		t.Fatalf("Stats() = %+v", st)
	}
	lookups := reg.CounterVec(RLSMetricsPrefix+"_shard_lookups_total", "", "shard")
	updates := reg.CounterVec(RLSMetricsPrefix+"_shard_updates_total", "", "shard")
	var l, u int64
	for i := 0; i < c.ShardCount(); i++ {
		l += lookups.WithLabelValues(strconv.Itoa(i)).Value()
		u += updates.WithLabelValues(strconv.Itoa(i)).Value()
	}
	if l < workers*per || u < 2*workers*per {
		t.Fatalf("shard op counts: %d lookups, %d updates", l, u)
	}
}

// BenchmarkLookupAllocs pins the satellite claim: the copy-free ReadEntry
// path must not allocate per read, while the cloning Lookup does.
func BenchmarkLookupAllocs(b *testing.B) {
	c := New(Options{Shards: 64, Registry: obs.NewRegistry()})
	for i := 0; i < 1024; i++ {
		lfn := fmt.Sprintf("lfn://cern.ch/f%04d", i)
		if err := c.Register(lfn, map[string]string{AttrSize: "1", AttrOwner: "x", AttrCRC: "y"}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("ReadEntry", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			err := c.ReadEntry(fmt.Sprintf("lfn://cern.ch/f%04d", i%1024), func(f *LogicalFile) {
				sink += len(f.Attrs)
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		_ = sink
	})
}

func TestReadEntryDoesNotAllocatePerAttrs(t *testing.T) {
	c := New(Options{Shards: 4, Registry: obs.NewRegistry()})
	mustRegister(t, c, "f", map[string]string{"a": "1", "b": "2"})
	allocs := testing.AllocsPerRun(200, func() {
		c.ReadEntry("f", func(f *LogicalFile) {
			if f.Attrs["a"] != "1" {
				t.Error("wrong attrs")
			}
		})
	})
	// ReadEntry clones no attr map (a clone costs 3+ allocs); it must stay
	// under the metrics-path noise floor.
	if allocs > 2 {
		t.Fatalf("ReadEntry allocates %.1f per op", allocs)
	}
}
