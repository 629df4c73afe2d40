package xfer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdmp/internal/obs"
)

// TestDedupCoalescesConcurrentSubmits checks that N submissions of one key
// run the job once and that every waiter sees the job's real error.
func TestDedupCoalescesConcurrentSubmits(t *testing.T) {
	s := New(Config{Workers: 2, Registry: obs.NewRegistry()})
	defer s.Close()

	var runs atomic.Int32
	release := make(chan struct{})
	sentinel := errors.New("source exploded")
	job := func(ctx context.Context) error {
		runs.Add(1)
		<-release
		return sentinel
	}

	const waiters = 8
	tickets := make([]*Ticket, waiters)
	for i := range tickets {
		tickets[i] = s.Submit("lfn://x", 0, job)
	}
	close(release)
	for i, tk := range tickets {
		if err := tk.Wait(context.Background()); !errors.Is(err, sentinel) {
			t.Fatalf("waiter %d: err = %v, want the job's real error", i, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("job ran %d times, want 1", got)
	}
}

// TestDistinctKeysRunConcurrently checks the pool actually overlaps jobs.
func TestDistinctKeysRunConcurrently(t *testing.T) {
	s := New(Config{Workers: 4, Registry: obs.NewRegistry()})
	defer s.Close()

	var mu sync.Mutex
	active, peak := 0, 0
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		tickets = append(tickets, s.Submit(fmt.Sprintf("k%d", i), 0, func(ctx context.Context) error {
			mu.Lock()
			active++
			if active > peak {
				peak = active
			}
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			active--
			mu.Unlock()
			return nil
		}))
	}
	for _, tk := range tickets {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if peak < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak)
	}
	if peak > 4 {
		t.Fatalf("peak concurrency %d exceeds the 4-worker pool", peak)
	}
}

// TestPerSourceCap checks AcquireSource holds concurrent jobs against one
// source at the configured cap while the pool is larger.
func TestPerSourceCap(t *testing.T) {
	s := New(Config{Workers: 8, PerSource: 2, Registry: obs.NewRegistry()})
	defer s.Close()

	var mu sync.Mutex
	active, peak := 0, 0
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		tickets = append(tickets, s.Submit(fmt.Sprintf("k%d", i), 0, func(ctx context.Context) error {
			release, err := s.AcquireSource(ctx, "tape1.cern.ch:2811")
			if err != nil {
				return err
			}
			defer release()
			mu.Lock()
			active++
			if active > peak {
				peak = active
			}
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			mu.Lock()
			active--
			mu.Unlock()
			return nil
		}))
	}
	for _, tk := range tickets {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if peak > 2 {
		t.Fatalf("peak in-flight against one source = %d, want <= 2", peak)
	}
	if peak < 2 {
		t.Fatalf("peak in-flight = %d; cap should still allow 2 at once", peak)
	}
}

// TestPriorityOrdering floods a single worker and checks high-priority
// jobs overtake earlier low-priority ones.
func TestPriorityOrdering(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	defer s.Close()

	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	record := func(name string) Job {
		return func(ctx context.Context) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	// Block the lone worker so subsequent submissions queue up.
	blocker := s.Submit("blocker", 0, func(ctx context.Context) error {
		<-gate
		return nil
	})
	// Wait until the blocker actually occupies the worker, or the
	// later submissions could race it into the queue.
	for queueDepth(s) > 0 {
		time.Sleep(time.Millisecond)
	}
	low1 := s.Submit("low1", 0, record("low1"))
	low2 := s.Submit("low2", 0, record("low2"))
	high := s.Submit("high", 5, record("high"))
	close(gate)
	for _, tk := range []*Ticket{blocker, low1, low2, high} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"high", "low1", "low2"}
	mu.Lock()
	defer mu.Unlock()
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("run order %v, want %v", order, want)
		}
	}
}

// TestAbandonedQueuedJobNeverRuns checks that when every waiter gives up
// on a queued job it is dequeued without running.
func TestAbandonedQueuedJobNeverRuns(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	defer s.Close()

	gate := make(chan struct{})
	s.Submit("blocker", 0, func(ctx context.Context) error {
		<-gate
		return nil
	})
	var ran atomic.Bool
	tk := s.Submit("victim", 0, func(ctx context.Context) error {
		ran.Store(true)
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	close(gate)
	// The victim's ticket must already be finished with Canceled.
	select {
	case <-tk.done:
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned ticket never completed")
	}
	if !errors.Is(tk.err, context.Canceled) {
		t.Fatalf("ticket err = %v, want context.Canceled", tk.err)
	}
	if ran.Load() {
		t.Fatal("abandoned queued job still ran")
	}
	// The key must be free for resubmission.
	again := s.Submit("victim", 0, func(ctx context.Context) error { return nil })
	if err := again.Wait(context.Background()); err != nil {
		t.Fatalf("resubmission after abandon: %v", err)
	}
}

// TestAbandonRunningJobCancelsItsContext checks the last waiter walking
// away interrupts a running job via its context.
func TestAbandonRunningJobCancelsItsContext(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	defer s.Close()

	started := make(chan struct{})
	stopped := make(chan struct{})
	tk := s.Submit("job", 0, func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		close(stopped)
		return ctx.Err()
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("running job did not observe cancellation after last waiter left")
	}
}

// TestSecondWaiterKeepsJobAlive checks one waiter abandoning does not
// cancel a job another waiter still wants.
func TestSecondWaiterKeepsJobAlive(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	job := func(ctx context.Context) error {
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	first := s.Submit("shared", 0, job)
	<-started
	second := s.Submit("shared", 0, job)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := first.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: %v, want context.Canceled", err)
	}
	close(release)
	if err := second.Wait(context.Background()); err != nil {
		t.Fatalf("second waiter: %v, want success (job must survive first waiter leaving)", err)
	}
}

// TestCloseFailsQueuedAndCancelsRunning checks shutdown semantics.
func TestCloseFailsQueuedAndCancelsRunning(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})

	started := make(chan struct{})
	running := s.Submit("running", 0, func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	<-started
	queued := s.Submit("queued", 0, func(ctx context.Context) error { return nil })

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	if err := running.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("running job: %v, want context.Canceled", err)
	}
	if err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job: %v, want context.Canceled", err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not drain")
	}
	// Post-close submissions fail immediately instead of hanging.
	late := s.Submit("late", 0, func(ctx context.Context) error { return nil })
	if err := late.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-close submit: %v, want context.Canceled", err)
	}
}

// TestMetricsAccounting spot-checks the gdmp_xfer_* families.
func TestMetricsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, Registry: reg})
	defer s.Close()

	// Job a runs until the duplicate is in, so the dedup cannot miss it.
	gate := make(chan struct{})
	a := s.Submit("a", 0, func(ctx context.Context) error { <-gate; return nil })
	b := s.Submit("a", 0, func(ctx context.Context) error { return nil }) // dedup
	close(gate)
	_ = a.Wait(context.Background())
	_ = b.Wait(context.Background())

	text := reg.Text()
	for _, want := range []string{
		"gdmp_xfer_dedup_total 1",
		`gdmp_xfer_jobs_total{outcome="ok"} 1`,
		"gdmp_xfer_queue_depth 0",
		"gdmp_xfer_active_workers 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics dump missing %q\n%s", want, text)
		}
	}
}

// TestResubmitAfterAbandonedRunningJobStartsFresh is the regression test
// for the dedup index across given-up jobs: once every waiter has
// abandoned a running job (it is canceled and merely draining), a
// re-submission of the same key must start a fresh job — not coalesce
// onto the dying one and inherit its cancellation.
func TestResubmitAfterAbandonedRunningJobStartsFresh(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	defer s.Close()

	started := make(chan struct{})
	exit := make(chan struct{})
	t1 := s.Submit("lfn://hot", 0, func(ctx context.Context) error {
		close(started)
		<-ctx.Done() // canceled by abandon
		<-exit       // ... but slow to actually wind down
		return ctx.Err()
	})
	<-started

	// The only waiter gives up: the running job is canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := t1.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning wait: err = %v", err)
	}

	// Re-queue the same LFN while the abandoned job is still draining.
	var ran atomic.Bool
	t2 := s.Submit("lfn://hot", 0, func(ctx context.Context) error {
		ran.Store(true)
		return nil
	})
	if t2 == t1 {
		t.Fatal("re-submission coalesced onto the abandoned job")
	}
	close(exit)
	if err := t2.Wait(context.Background()); err != nil {
		t.Fatalf("fresh job after abandon: %v", err)
	}
	if !ran.Load() {
		t.Fatal("fresh job never ran")
	}
	// The old ticket still reports its own cancellation.
	<-t1.done
	if !errors.Is(t1.err, context.Canceled) {
		t.Fatalf("abandoned job outcome = %v, want canceled", t1.err)
	}
}

// TestAbandonedJobCompletionDoesNotEvictSuccessor pins the other half of
// the fix: when the abandoned job finally exits after the key has been
// reused, its completion must not remove the fresh job from the dedup
// index (a third submission must still coalesce onto the live job).
func TestAbandonedJobCompletionDoesNotEvictSuccessor(t *testing.T) {
	s := New(Config{Workers: 2, Registry: obs.NewRegistry()})
	defer s.Close()

	started := make(chan struct{})
	exit := make(chan struct{})
	t1 := s.Submit("lfn://hot", 0, func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		<-exit
		return ctx.Err()
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t1.Wait(ctx) // abandon the running job

	started2 := make(chan struct{})
	release2 := make(chan struct{})
	var runs atomic.Int32
	job2 := func(ctx context.Context) error {
		runs.Add(1)
		close(started2)
		<-release2
		return nil
	}
	t2 := s.Submit("lfn://hot", 0, job2)
	<-started2

	// Let the abandoned job finish now, while the successor is running.
	close(exit)
	<-t1.done

	// A third submission must coalesce onto the live successor.
	t3 := s.Submit("lfn://hot", 0, job2)
	if t3 != t2 {
		t.Fatal("successor was evicted from the dedup index by the abandoned job's completion")
	}
	close(release2)
	if err := t3.Wait(context.Background()); err != nil {
		t.Fatalf("successor: %v", err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("successor ran %d times, want 1", got)
	}
}

// TestMaxQueuePriorityAwareRejection checks the depth cap: at the cap a
// low-priority arrival is rejected outright, while a high-priority arrival
// displaces the lowest-priority queued job instead.
func TestMaxQueuePriorityAwareRejection(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 2, Registry: obs.NewRegistry()})
	defer s.Close()

	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context) error { <-release; return nil }
	noop := func(ctx context.Context) error { return nil }

	running := s.Submit("running", 0, block)
	waitQueueDrainTo(t, s, 0) // the worker picked it up

	low := s.Submit("low", -1, noop)
	mid := s.Submit("mid", 0, noop)
	if got := queueDepth(s); got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}

	// Same priority as the queued minimum: the arrival is refused.
	rejected := s.Submit("equal", -1, noop)
	if err := rejected.Wait(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("equal-priority arrival err = %v, want ErrQueueFull", err)
	}

	// Higher priority: the lowest-priority queued job is displaced.
	high := s.Submit("high", 5, noop)
	if err := low.Wait(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("displaced job err = %v, want ErrQueueFull", err)
	}
	if got := queueDepth(s); got != 2 {
		t.Fatalf("queue depth after displacement = %d, want 2", got)
	}

	release <- struct{}{} // finish the running job; the queue drains
	for name, tk := range map[string]*Ticket{"running": running, "mid": mid, "high": high} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// queueDepth reads the scheduler's gdmp_xfer_queue_depth series off its
// registry.
func queueDepth(s *Scheduler) int64 {
	return s.cfg.Registry.Gauge(MetricsPrefix+"_queue_depth", "").Value()
}

func waitQueueDrainTo(t *testing.T, s *Scheduler, depth int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queueDepth(s) > depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue stuck at %d, want <= %d", queueDepth(s), depth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHoldsReadsTheInFlightIndex: a key is held while its job is queued or
// running, not once the job has ended, and not once every waiter has
// abandoned it mid-run (its key is free for a fresh job).
func TestHoldsReadsTheInFlightIndex(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	defer s.Close()

	started, exit := make(chan struct{}), make(chan struct{})
	running := s.Submit("run", 0, func(ctx context.Context) error {
		close(started)
		<-exit
		return nil
	})
	<-started
	queued := s.Submit("queue", 0, func(context.Context) error { return nil })
	if !s.Holds("run") || !s.Holds("queue") || s.Holds("other") {
		t.Fatalf("holds run %v, queue %v, other %v; want true, true, false",
			s.Holds("run"), s.Holds("queue"), s.Holds("other"))
	}
	close(exit)
	for _, tk := range []*Ticket{running, queued} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Holds("run") || s.Holds("queue") {
		t.Fatal("an ended job is still held")
	}

	started, exit = make(chan struct{}), make(chan struct{})
	defer close(exit)
	abandoned := s.Submit("run", 0, func(ctx context.Context) error {
		close(started)
		<-exit
		return ctx.Err()
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	abandoned.Wait(ctx)
	if s.Holds("run") {
		t.Fatal("a job every waiter abandoned is still held")
	}
}
