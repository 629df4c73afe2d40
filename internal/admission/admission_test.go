package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gdmp/internal/obs"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return New(cfg)
}

func TestAdmitImmediateAndRelease(t *testing.T) {
	c := newTestController(t, Config{ControlSlots: 2})
	rel1, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	rel2, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	if got := c.InFlight(Control); got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	rel1()
	rel1() // double release must be a no-op
	rel2()
	if got := c.InFlight(Control); got != 0 {
		t.Fatalf("in flight after release = %d, want 0", got)
	}
	st := c.ClassStats(Control)
	if st.Requested != 2 || st.Admitted != 2 {
		t.Fatalf("stats = %+v, want 2 requested / 2 admitted", st)
	}
}

func TestAdmitQueuesAndPromotes(t *testing.T) {
	c := newTestController(t, Config{ControlSlots: 1, ControlQueue: 4})
	rel, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		rel2, err := c.Admit(context.Background(), Control, Request{})
		if err == nil {
			rel2()
		}
		got <- err
	}()
	waitFor(t, func() bool { return c.Queued(Control) == 1 })
	rel()
	if err := <-got; err != nil {
		t.Fatalf("queued admit: %v", err)
	}
	if !c.Settled() {
		t.Fatalf("accounting not settled: %+v", c.ClassStats(Control))
	}
}

func TestDeadOnArrivalShed(t *testing.T) {
	c := newTestController(t, Config{})
	_, err := c.Admit(context.Background(), Control, Request{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var ov *Overloaded
	if !errors.As(err, &ov) || ov.Reason != "expired" {
		t.Fatalf("err = %#v, want expired Overloaded", err)
	}
	if st := c.ClassStats(Control); st.Expired != 1 {
		t.Fatalf("stats = %+v, want 1 expired", st)
	}
}

func TestExpiredWhileQueuedNeverExecutes(t *testing.T) {
	c := newTestController(t, Config{ControlSlots: 1, ControlQueue: 4})
	rel, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), Control, Request{Deadline: time.Now().Add(30 * time.Millisecond)})
		got <- err
	}()
	waitFor(t, func() bool { return c.Queued(Control) == 1 })
	time.Sleep(60 * time.Millisecond) // let the queued deadline lapse
	rel()
	err = <-got
	var ov *Overloaded
	if !errors.As(err, &ov) || ov.Reason != "expired" {
		t.Fatalf("err = %v, want expired Overloaded", err)
	}
	st := c.ClassStats(Control)
	if st.Admitted != 1 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want 1 admitted / 1 expired", st)
	}
}

func TestWaitEstimateRejectsHopelessDeadline(t *testing.T) {
	c := newTestController(t, Config{ControlSlots: 1, ControlQueue: 8})
	// Teach the service-time EWMA that executions take ~100ms.
	start := time.Now()
	rel, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	for time.Since(start) < 100*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
	}
	rel()
	// Occupy the only slot, then offer a request whose deadline is far
	// shorter than one estimated service wave.
	rel, err = c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("re-admit: %v", err)
	}
	defer rel()
	_, err = c.Admit(context.Background(), Control, Request{Deadline: time.Now().Add(5 * time.Millisecond)})
	var ov *Overloaded
	if !errors.As(err, &ov) || ov.Reason != "deadline" {
		t.Fatalf("err = %v, want deadline Overloaded", err)
	}
	if ov.RetryAfter() <= 0 {
		t.Fatalf("retry-after = %v, want > 0", ov.RetryAfter())
	}
}

func TestQueueFullShedsHighestAttemptFirst(t *testing.T) {
	c := newTestController(t, Config{ControlSlots: 1, ControlQueue: 2})
	rel, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	defer rel()

	type result struct {
		attempt uint32
		err     error
	}
	results := make(chan result, 2)
	for _, attempt := range []uint32{1, 5} {
		attempt := attempt
		go func() {
			_, err := c.Admit(context.Background(), Control, Request{Attempt: attempt})
			results <- result{attempt, err}
		}()
		waitFor(t, func() bool { return c.Queued(Control) >= 1 })
	}
	waitFor(t, func() bool { return c.Queued(Control) == 2 })

	// A first-try arrival displaces the attempt-5 waiter, not attempt-1.
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), Control, Request{Attempt: 0})
		done <- err
	}()
	r := <-results
	if r.attempt != 5 {
		t.Fatalf("shed attempt %d, want 5", r.attempt)
	}
	var ov *Overloaded
	if !errors.As(r.err, &ov) || ov.Reason != "shed" {
		t.Fatalf("shed err = %v, want shed Overloaded", r.err)
	}
	// An equal-attempt arrival cannot displace anyone: queue is full again.
	_, err = c.Admit(context.Background(), Control, Request{Attempt: 1})
	if !errors.As(err, &ov) || ov.Reason != "queue_full" {
		t.Fatalf("err = %v, want queue_full Overloaded", err)
	}
	c.Drain() // unblock the remaining waiters
	<-results
	<-done
}

func TestCancelWhileQueued(t *testing.T) {
	c := newTestController(t, Config{ControlSlots: 1, ControlQueue: 4})
	rel, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Control, Request{})
		got <- err
	}()
	waitFor(t, func() bool { return c.Queued(Control) == 1 })
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rel()
	if !c.Settled() {
		t.Fatalf("accounting not settled: %+v", c.ClassStats(Control))
	}
	if st := c.ClassStats(Control); st.Canceled != 1 {
		t.Fatalf("stats = %+v, want 1 canceled", st)
	}
}

func TestDrainRejectsQueuedAndNew(t *testing.T) {
	c := newTestController(t, Config{ControlSlots: 1, ControlQueue: 4})
	rel, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	const queued = 3
	got := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			_, err := c.Admit(context.Background(), Control, Request{})
			got <- err
		}()
	}
	waitFor(t, func() bool { return c.Queued(Control) == queued })
	c.Drain()
	for i := 0; i < queued; i++ {
		if err := <-got; !errors.Is(err, ErrDraining) {
			t.Fatalf("queued err = %v, want ErrDraining", err)
		}
	}
	if _, err := c.Admit(context.Background(), Control, Request{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("new err = %v, want ErrDraining", err)
	}
	rel() // in-flight work still finishes cleanly
	if !c.Settled() {
		t.Fatalf("accounting not settled: %+v", c.ClassStats(Control))
	}
	st := c.ClassStats(Control)
	if st.Drained != queued+1 {
		t.Fatalf("stats = %+v, want %d drained", st, queued+1)
	}
}

func TestBrownoutHysteresisAndDecay(t *testing.T) {
	clock := time.Now()
	now := func() time.Time { return clock }
	reg := obs.NewRegistry()
	c := newTestController(t, Config{
		ControlSlots: 1, ControlQueue: 4,
		BrownoutEnter: 0.5, BrownoutExit: 0.2,
		DecayHalfLife: 100 * time.Millisecond,
		Now:           now,
		Registry:      reg,
	})
	// Force a high admission-wait EWMA directly through the internals the
	// public API drives: admit, queue a waiter, advance the clock, grant.
	rel, err := c.Admit(context.Background(), Control, Request{})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), Control, Request{})
		got <- err
	}()
	waitFor(t, func() bool { return c.Queued(Control) == 1 })
	clock = clock.Add(300 * time.Millisecond) // the waiter has now waited 300ms
	rel()
	if err := <-got; err != nil {
		t.Fatalf("queued admit: %v", err)
	}
	if !c.Browned() {
		t.Fatalf("load %.2f: brownout should be active after a 300ms admission wait", c.Load())
	}
	if c.Allow("scrub") {
		t.Fatalf("Allow during brownout must defer")
	}
	active := reg.Gauge("gdmp_brownout_active", "").Value()
	entered := reg.Counter("gdmp_brownout_entered_total", "").Value()
	deferred := reg.CounterVec("gdmp_brownout_deferred_total", "", "work").WithLabelValues("scrub").Value()
	if active != 1 || entered != 1 || deferred != 1 {
		t.Fatalf("brownout active %d, entered %d, deferred %d; want 1, 1, 1", active, entered, deferred)
	}
	// With no further grants the wait component decays; brownout exits.
	clock = clock.Add(2 * time.Second)
	if c.Browned() {
		t.Fatalf("load %.2f: brownout should have decayed away", c.Load())
	}
	if !c.Allow("scrub") {
		t.Fatalf("Allow after brownout exit must pass")
	}
	if active := reg.Gauge("gdmp_brownout_active", "").Value(); active != 0 {
		t.Fatalf("gdmp_brownout_active = %d after the exit, want 0", active)
	}
}

func TestExactAccountingUnderConcurrency(t *testing.T) {
	c := newTestController(t, Config{ControlSlots: 4, ControlQueue: 8, RetryAfterMin: time.Millisecond})
	var wg sync.WaitGroup
	const callers = 64
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			req := Request{Attempt: uint32(i % 7)}
			if i%5 == 0 {
				req.Deadline = time.Now().Add(time.Duration(i%3) * 5 * time.Millisecond)
			}
			rel, err := c.Admit(ctx, Control, req)
			if err == nil {
				time.Sleep(time.Millisecond)
				rel()
			}
		}()
	}
	wg.Wait()
	if !c.Settled() {
		t.Fatalf("accounting not settled: %+v", c.ClassStats(Control))
	}
	st := c.ClassStats(Control)
	if st.Requested != callers {
		t.Fatalf("requested = %d, want %d", st.Requested, callers)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
