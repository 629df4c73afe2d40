package retry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gdmp/internal/obs"
)

// noSleep replaces backoff sleeps and records them.
func noSleep(slept *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return nil
	}
}

func TestDoSucceedsFirstAttempt(t *testing.T) {
	var slept []time.Duration
	p := Policy{Attempts: 5, sleep: noSleep(&slept)}
	calls := 0
	if err := p.Do(context.Background(), func(int) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(slept) != 0 {
		t.Fatalf("calls = %d, sleeps = %v", calls, slept)
	}
}

func TestDoRetriesThenSucceeds(t *testing.T) {
	var slept []time.Duration
	p := Policy{Attempts: 5, Jitter: 0, sleep: noSleep(&slept)}
	calls := 0
	err := p.Do(context.Background(), func(attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		if attempt < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(slept) != 2 {
		t.Fatalf("calls = %d, sleeps = %v", calls, slept)
	}
	if slept[1] <= slept[0] {
		t.Fatalf("backoff did not grow: %v", slept)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var slept []time.Duration
	p := Policy{Attempts: 3, sleep: noSleep(&slept)}
	boom := errors.New("boom")
	err := p.Do(context.Background(), func(int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Attempts != 3 || ex.Reason != OutcomeExhausted {
		t.Fatalf("exhausted error = %+v", err)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v", slept)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	p := Policy{Attempts: 5}
	calls := 0
	boom := errors.New("fatal")
	err := p.Do(context.Background(), func(int) error { calls++; return Permanent(boom) })
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	if !errors.Is(err, boom) || !IsPermanent(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestDoCustomClassifier(t *testing.T) {
	p := Policy{
		Attempts:  5,
		Retryable: func(err error) bool { return strings.Contains(err.Error(), "again") },
	}
	calls := 0
	err := p.Do(context.Background(), func(int) error { calls++; return errors.New("nope") })
	if calls != 1 || err == nil {
		t.Fatalf("calls = %d, err = %v", calls, err)
	}
}

func TestDoContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Attempts: 100, BaseDelay: time.Millisecond}
	calls := 0
	err := p.Do(ctx, func(int) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errors.New("transient")
	})
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.Reason != OutcomeCanceled {
		t.Fatalf("want canceled, got %v", err)
	}
	if calls > 3 {
		t.Fatalf("kept retrying after cancel: %d calls", calls)
	}
}

func TestDelayGrowthAndCap(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Multiplier: 2, Jitter: 0}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestDelayJitterBoundsAndDeterminism(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5, Seed: 42}
	for retries := 1; retries <= 4; retries++ {
		d1 := p.Delay(retries)
		d2 := p.Delay(retries)
		if d1 != d2 {
			t.Fatalf("seeded jitter not deterministic: %v vs %v", d1, d2)
		}
		base := 100 * time.Millisecond << (retries - 1)
		if base > time.Second {
			base = time.Second
		}
		lo := time.Duration(float64(base) * 0.5)
		hi := time.Duration(float64(base) * 1.5)
		if hi > time.Second {
			hi = time.Second
		}
		if d1 < lo || d1 > hi {
			t.Fatalf("Delay(%d) = %v outside [%v, %v]", retries, d1, lo, hi)
		}
	}
}

func TestDoRecordsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var slept []time.Duration
	p := Policy{Attempts: 4, Op: "test.op", Registry: reg, sleep: noSleep(&slept)}
	err := p.Do(context.Background(), func(attempt int) error {
		if attempt < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	text := reg.Text()
	for _, want := range []string{
		`gdmp_retry_attempts_total{op="test.op",outcome="error"} 2`,
		`gdmp_retry_attempts_total{op="test.op",outcome="ok"} 1`,
		`gdmp_retry_ops_total{op="test.op",outcome="ok"} 1`,
		`gdmp_retry_backoffs_total{op="test.op"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

func TestExhaustedErrorMessage(t *testing.T) {
	err := &ExhaustedError{Op: "x", Attempts: 2, Reason: OutcomeExhausted, Last: fmt.Errorf("last")}
	if !strings.Contains(err.Error(), "x gave up (exhausted) after 2 attempts") {
		t.Fatalf("message = %q", err.Error())
	}
}

// retryAfterErr is a transient failure carrying a server-suggested
// retry-after, like the admission layer's typed overload rejection.
type retryAfterErr struct{ after time.Duration }

func (e *retryAfterErr) Error() string             { return "overloaded" }
func (e *retryAfterErr) RetryAfter() time.Duration { return e.after }

func TestDoHonorsRetryAfterFloor(t *testing.T) {
	var slept []time.Duration
	reg := obs.NewRegistry()
	p := Policy{
		Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
		Jitter: 0, Op: "test.floor", Registry: reg, sleep: noSleep(&slept),
	}
	hint := 250 * time.Millisecond
	err := p.Do(context.Background(), func(int) error { return &retryAfterErr{after: hint} })
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v, want 2", slept)
	}
	for _, d := range slept {
		if d < hint {
			t.Fatalf("backoff %v below the server-suggested floor %v", d, hint)
		}
	}
	if got := reg.CounterVec(MetricsPrefix+"_retry_after_floors_total", "", "op").
		WithLabelValues("test.floor").Value(); got != 2 {
		t.Fatalf("floors counter = %d, want 2", got)
	}
}

func TestRetryAfterOfUnwrapsChains(t *testing.T) {
	base := &retryAfterErr{after: time.Second}
	wrapped := fmt.Errorf("rpc: call gdmp.stage: %w", base)
	if got := RetryAfterOf(wrapped); got != time.Second {
		t.Fatalf("RetryAfterOf(wrapped) = %v, want 1s", got)
	}
	if got := RetryAfterOf(errors.New("plain")); got != 0 {
		t.Fatalf("RetryAfterOf(plain) = %v, want 0", got)
	}
}
