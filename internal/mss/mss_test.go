package mss

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gdmp/internal/obs"
)

func newMSS(t *testing.T, capacity int64, policy EvictionPolicy) *MSS {
	t.Helper()
	dir := t.TempDir()
	m, err := New(Config{
		TapeDir:      filepath.Join(dir, "tape"),
		PoolDir:      filepath.Join(dir, "pool"),
		PoolCapacity: capacity,
		Policy:       policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// withMetrics binds m to a gdmp_pool_* family in a fresh registry and
// returns it.
func withMetrics(m *MSS) *obs.PoolMetrics {
	pm := obs.NewPoolMetrics(obs.NewRegistry())
	m.SetMetrics(pm)
	return pm
}

func putTape(t *testing.T, m *MSS, name string, size int) []byte {
	t.Helper()
	data := bytes.Repeat([]byte{byte(len(name))}, size)
	if err := m.PutTape(name, data); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{TapeDir: "a", PoolDir: "b", PoolCapacity: 0}); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("zero capacity: %v", err)
	}
	if _, err := New(Config{PoolCapacity: 10}); err == nil {
		t.Error("missing dirs accepted")
	}
}

func TestStageFromTape(t *testing.T) {
	m := newMSS(t, 1<<20, LRU)
	pm := withMetrics(m)
	want := putTape(t, m, "run1.db", 1000)
	if m.OnDisk("run1.db") {
		t.Fatal("file on disk before staging")
	}
	path, err := m.StageContext(context.Background(), "run1.db")
	if err != nil {
		t.Fatalf("Stage: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("staged content mismatch")
	}
	if !m.OnDisk("run1.db") {
		t.Fatal("file not recorded on disk")
	}
	if misses, hits, occ := pm.Misses.Value(), pm.Hits.Value(), pm.Occupancy.Value(); misses != 1 || hits != 0 || occ != 1000 {
		t.Fatalf("misses %d, hits %d, occupancy %d", misses, hits, occ)
	}
	// Second stage is a cache hit.
	if _, err := m.StageContext(context.Background(), "run1.db"); err != nil {
		t.Fatal(err)
	}
	if hits := pm.Hits.Value(); hits != 1 {
		t.Fatalf("hits after a hit = %d", hits)
	}
	m.Release("run1.db")
	m.Release("run1.db")
}

func TestStageUnknownFile(t *testing.T) {
	m := newMSS(t, 1<<20, LRU)
	if _, err := m.StageContext(context.Background(), "ghost.db"); !errors.Is(err, ErrNotOnTape) {
		t.Fatalf("Stage(ghost): %v", err)
	}
}

func TestEvictionLRU(t *testing.T) {
	m := newMSS(t, 2500, LRU)
	pm := withMetrics(m)
	putTape(t, m, "a", 1000)
	putTape(t, m, "b", 1000)
	putTape(t, m, "c", 1000)

	for _, n := range []string{"a", "b"} {
		if _, err := m.StageContext(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		m.Release(n)
	}
	// Touch "a" so "b" becomes the LRU victim.
	if _, err := m.StageContext(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	m.Release("a")
	if _, err := m.StageContext(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	m.Release("c")
	if m.OnDisk("b") {
		t.Fatal("LRU should have evicted b")
	}
	if !m.OnDisk("a") || !m.OnDisk("c") {
		t.Fatalf("pool contents = %v", m.PoolContents())
	}
	if ev := pm.Evictions.Value(); ev != 1 {
		t.Fatalf("evictions = %d", ev)
	}
}

func TestEvictionFIFO(t *testing.T) {
	m := newMSS(t, 2500, FIFO)
	putTape(t, m, "a", 1000)
	putTape(t, m, "b", 1000)
	putTape(t, m, "c", 1000)
	for _, n := range []string{"a", "b"} {
		if _, err := m.StageContext(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		m.Release(n)
		time.Sleep(time.Millisecond) // order FIFO timestamps
	}
	// Touching "a" does NOT save it under FIFO.
	if _, err := m.StageContext(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	m.Release("a")
	if _, err := m.StageContext(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	m.Release("c")
	if m.OnDisk("a") {
		t.Fatal("FIFO should have evicted a (oldest staged)")
	}
	if !m.OnDisk("b") || !m.OnDisk("c") {
		t.Fatalf("pool contents = %v", m.PoolContents())
	}
}

func TestPinnedFilesSurviveEviction(t *testing.T) {
	m := newMSS(t, 2500, LRU)
	putTape(t, m, "pinned", 2000)
	putTape(t, m, "new", 1000)
	if _, err := m.StageContext(context.Background(), "pinned"); err != nil {
		t.Fatal(err)
	}
	// "pinned" is still pinned; staging "new" (1000 bytes into 500 free)
	// must fail rather than evict it.
	if _, err := m.StageContext(context.Background(), "new"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Stage over pinned file: %v", err)
	}
	m.Release("pinned")
	if _, err := m.StageContext(context.Background(), "new"); err != nil {
		t.Fatalf("Stage after release: %v", err)
	}
	if m.OnDisk("pinned") {
		t.Fatal("released file should have been evicted")
	}
}

func TestReserveAndRelease(t *testing.T) {
	m := newMSS(t, 1000, LRU)
	release, err := m.Reserve(800)
	if err != nil {
		t.Fatal(err)
	}
	if m.Free() != 200 {
		t.Fatalf("Free = %d", m.Free())
	}
	if _, err := m.Reserve(300); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-reserve: %v", err)
	}
	release()
	release() // idempotent
	if m.Free() != 1000 {
		t.Fatalf("Free after release = %d", m.Free())
	}
	if _, err := m.Reserve(-1); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestAddToPoolAndArchive(t *testing.T) {
	m := newMSS(t, 10_000, LRU)
	// A replica arrives over the WAN directly into the pool.
	poolPath := filepath.Join(filepath.Dir(mustDiskDir(t, m)), "pool", "arrived.db")
	if err := os.MkdirAll(filepath.Dir(poolPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(poolPath, []byte("replica-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.AddToPool("arrived.db"); err != nil {
		t.Fatalf("AddToPool: %v", err)
	}
	if !m.OnDisk("arrived.db") {
		t.Fatal("AddToPool did not register the file")
	}
	if err := m.AddToPool("arrived.db"); err != nil {
		t.Fatalf("idempotent AddToPool: %v", err)
	}
	if err := m.AddToPool("never-written"); err == nil {
		t.Fatal("AddToPool of missing file accepted")
	}
	// Archive it to tape, then evict and re-stage.
	if err := m.Archive("arrived.db"); err != nil {
		t.Fatalf("Archive: %v", err)
	}
	if _, err := m.TapeSize("arrived.db"); err != nil {
		t.Fatalf("archived file not on tape: %v", err)
	}
}

func mustDiskDir(t *testing.T, m *MSS) string {
	t.Helper()
	return m.cfg.PoolDir
}

func TestStageTimingCharges(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{
		TapeDir:      filepath.Join(dir, "tape"),
		PoolDir:      filepath.Join(dir, "pool"),
		PoolCapacity: 1 << 20,
		MountLatency: 50 * time.Millisecond,
		TapeRateMBps: 10, // 100 KB costs 10 ms
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100_000)
	if err := m.PutTape("slow.db", data); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.StageContext(context.Background(), "slow.db"); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 55*time.Millisecond {
		t.Fatalf("stage took %v, expected mount latency + drain time", elapsed)
	}
	m.Release("slow.db")
	// A warm hit is fast.
	start = time.Now()
	if _, err := m.StageContext(context.Background(), "slow.db"); err != nil {
		t.Fatal(err)
	}
	if warm := time.Since(start); warm > 20*time.Millisecond {
		t.Fatalf("warm stage took %v", warm)
	}
	m.Release("slow.db")
}

func TestConcurrentStaging(t *testing.T) {
	m := newMSS(t, 1<<22, LRU)
	for i := 0; i < 10; i++ {
		putTape(t, m, fmt.Sprintf("f%d", i), 10_000)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := fmt.Sprintf("f%d", i)
				p, err := m.StageContext(context.Background(), name)
				if err != nil {
					errs <- err
					return
				}
				if _, err := os.Stat(p); err != nil {
					errs <- err
					return
				}
				m.Release(name)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m.Used() > 1<<22 {
		t.Fatalf("pool over capacity: %d", m.Used())
	}
}

func TestPathEscapesRejected(t *testing.T) {
	m := newMSS(t, 1000, LRU)
	if err := m.PutTape("", nil); err == nil {
		t.Error("empty name accepted")
	}
	// Escaping names are confined within the tape dir by cleaning.
	if err := m.PutTape("../outside.db", []byte("x")); err != nil {
		t.Fatalf("PutTape(../outside.db): %v", err)
	}
	if _, err := os.Stat(filepath.Join(m.cfg.TapeDir, "outside.db")); err != nil {
		t.Fatal("cleaned path not inside tape dir")
	}
	parent := filepath.Dir(m.cfg.TapeDir)
	if _, err := os.Stat(filepath.Join(parent, "outside.db")); err == nil {
		t.Fatal("path escaped the tape dir")
	}
}
