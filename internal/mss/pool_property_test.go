package mss

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gdmp/internal/obs"
)

// poolScript drives one MSS through a random stage/release/reserve/evict
// sequence and checks the pool's safety invariants after every step:
// pinned and protected files are never evicted, occupancy never exceeds
// capacity, and the gdmp_pool_* counters reconcile exactly with the
// operation log the script kept on the side.
func poolScript(t *testing.T, seed int64) error {
	const capacity = 1000
	dir, err := os.MkdirTemp("", "mssprop")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, err := New(Config{
		TapeDir:      filepath.Join(dir, "tape"),
		PoolDir:      filepath.Join(dir, "pool"),
		PoolCapacity: capacity,
		Policy:       EvictionPolicy(seed % 2), // half the runs LRU, half FIFO
	})
	if err != nil {
		return err
	}
	pm := obs.NewPoolMetrics(obs.NewRegistry())
	m.SetMetrics(pm)

	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 8)
	sizes := make(map[string]int64)
	for i := range names {
		names[i] = fmt.Sprintf("f%d.dat", i)
		sz := int64(50 + rng.Intn(250))
		sizes[names[i]] = sz
		if err := m.PutTape(names[i], make([]byte, sz)); err != nil {
			return err
		}
	}

	// The side model: what the script believes about pins and protection.
	pins := make(map[string]int)
	protected := make(map[string]bool)
	var evictErr error
	evictions := 0
	m.SetOnEvict(func(name string, size int64) {
		evictions++
		if pins[name] > 0 && evictErr == nil {
			evictErr = fmt.Errorf("seed %d: evicted %s while pinned (%d pins)", seed, name, pins[name])
		}
		if protected[name] && evictErr == nil {
			evictErr = fmt.Errorf("seed %d: evicted protected file %s", seed, name)
		}
		delete(protected, name)
		delete(pins, name)
	})

	// Operation log totals the pool counters must reconcile with.
	stageCalls, tapeStages, noteHits, noteMisses := 0, 0, 0, 0
	var held []func() // reservations deliberately kept open
	addSeq := 0

	for step := 0; step < 120; step++ {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(12) {
		case 0, 1, 2, 3: // stage (the common operation)
			onDisk := m.OnDisk(name)
			stageCalls++
			if _, err := m.StageContext(context.Background(), name); err == nil {
				pins[name]++
				if !onDisk {
					tapeStages++
				}
			}
		case 4, 5, 6: // release
			if pins[name] > 0 {
				pins[name]--
			}
			m.Release(name)
		case 7, 8: // reserve; keep some reservations open across steps
			release, err := m.Reserve(int64(rng.Intn(400)))
			if err == nil {
				if rng.Intn(2) == 0 {
					release()
				} else {
					held = append(held, release)
				}
			}
		case 9: // a replica "arrives over the WAN"
			addSeq++
			arrival := fmt.Sprintf("wan%d-%d.dat", seed%1000, addSeq)
			sz := int64(50 + rng.Intn(250))
			p := filepath.Join(dir, "pool", arrival)
			if err := os.WriteFile(p, make([]byte, sz), 0o644); err != nil {
				return err
			}
			if err := m.AddToPool(arrival); err != nil {
				os.Remove(p) // rejected arrival: no entry, no bytes
			} else {
				sizes[arrival] = sz
			}
		case 10: // protect (producer-original treatment)
			if m.OnDisk(name) {
				protected[name] = true
			}
			m.Protect(name)
		case 11: // drop
			m.Drop(name)
			delete(pins, name)
			delete(protected, name)
		}
		if evictErr != nil {
			return evictErr
		}
		if used := m.Used(); used > capacity {
			return fmt.Errorf("seed %d step %d: used %d exceeds capacity %d", seed, step, used, capacity)
		}
		if free := m.Free(); free < 0 {
			return fmt.Errorf("seed %d step %d: negative free space %d", seed, step, free)
		}
	}

	// A few unmediated accesses (the core's Get path) must fold into the
	// same counters.
	for i := 0; i < rng.Intn(5); i++ {
		hit := rng.Intn(2) == 0
		m.NoteAccess(hit, time.Millisecond)
		if hit {
			noteHits++
		} else {
			noteMisses++
		}
	}

	hits, misses := int(pm.Hits.Value()), int(pm.Misses.Value())
	if hits+misses != stageCalls+noteHits+noteMisses {
		return fmt.Errorf("seed %d: hits %d + misses %d != %d stage calls + %d noted",
			seed, hits, misses, stageCalls, noteHits+noteMisses)
	}
	if ev := int(pm.Evictions.Value()); ev != evictions {
		return fmt.Errorf("seed %d: evictions counter %d, callback saw %d", seed, ev, evictions)
	}
	// Each completed tape stage and each noted miss timed one fetch.
	if n := int(pm.StageSeconds.Count()); n != tapeStages+noteMisses {
		return fmt.Errorf("seed %d: %d stage latencies, log says %d tape stages + %d noted misses", seed, n, tapeStages, noteMisses)
	}

	// Releasing every held reservation restores Free to exactly what the
	// residents leave over: no reservation leaked, none double-counted.
	for _, release := range held {
		release()
	}
	if got, want := m.Free(), int64(capacity)-m.Used(); got != want {
		return fmt.Errorf("seed %d: free %d after releasing all reservations, want %d", seed, got, want)
	}
	return nil
}

func TestPoolInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		if err := poolScript(t, seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A stage that fails after Reserve must put the reserved capacity back;
// otherwise every canceled tape mount permanently shrinks the pool.
func TestStageFailureReleasesReservation(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{
		TapeDir:      filepath.Join(dir, "tape"),
		PoolDir:      filepath.Join(dir, "pool"),
		PoolCapacity: 1000,
		MountLatency: time.Second, // far longer than the context allows
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PutTape("slow.dat", make([]byte, 400)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := m.StageContext(ctx, "slow.dat"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stage: got %v, want deadline exceeded", err)
	}
	if got := m.Free(); got != 1000 {
		t.Fatalf("free = %d after failed stage, want 1000 (reservation leaked)", got)
	}
	if m.OnDisk("slow.dat") {
		t.Fatal("failed stage left an entry in the pool")
	}
}

// Two concurrent stages of the same file must account its bytes once: the
// loser folds into the winner's entry instead of double-counting usage.
func TestConcurrentDuplicateStageAccounting(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{
		TapeDir: filepath.Join(dir, "tape"),
		PoolDir: filepath.Join(dir, "pool"),
		// Room for every racer's reservation at once: the race being
		// tested is in the accounting, not in eviction pressure.
		PoolCapacity: 2000,
		MountLatency: 20 * time.Millisecond, // wide race window
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PutTape("dup.dat", make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.StageContext(context.Background(), "dup.dat"); err != nil {
				t.Errorf("stage: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := m.Used(); got != 300 {
		t.Fatalf("used = %d after duplicate stages, want 300", got)
	}
	if got := len(m.PoolContents()); got != 1 {
		t.Fatalf("%d pool entries, want 1", got)
	}
	// All four stages pinned the one entry; releasing them all makes it
	// evictable again.
	for i := 0; i < 4; i++ {
		m.Release("dup.dat")
	}
	if _, err := m.Reserve(1800); err != nil {
		t.Fatalf("reserve after releases: %v (entry still pinned?)", err)
	}
	if m.OnDisk("dup.dat") {
		t.Fatal("dup.dat not evicted by the reservation")
	}
}
