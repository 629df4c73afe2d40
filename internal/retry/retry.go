// Package retry is the repository's unified retry/backoff layer: one
// policy type shared by every network path (GridFTP transfers, Request
// Manager dials, replica pulls, notification redelivery),
// so that partial failures — the dominant failure mode reported for the EU
// DataGrid testbed — are absorbed the same way everywhere.
//
// A Policy describes exponential backoff with jitter, an attempt cap, and
// a retryable-error classification. Do runs
// a function under the policy, sleeping between attempts (context-aware:
// cancellation interrupts both the attempt gate and the backoff sleep).
// Every attempt and every finished operation is recorded in the
// gdmp_retry_* metric families through internal/obs, so tests and
// operators can account for retries exactly.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gdmp/internal/obs"
)

// MetricsPrefix prefixes every retry-layer metric.
const MetricsPrefix = "gdmp_retry"

// Outcome label values recorded in gdmp_retry_ops_total.
const (
	OutcomeOK        = "ok"        // the operation eventually succeeded
	OutcomePermanent = "permanent" // a non-retryable error stopped it
	OutcomeExhausted = "exhausted" // the attempt cap was reached
	OutcomeCanceled  = "canceled"  // the context was canceled
)

// Policy describes how an operation is retried. The zero value is usable:
// defaults are three attempts, 50 ms initial backoff doubling to a 2 s
// ceiling, 20% jitter, and "retry everything except
// permanent and context errors".
type Policy struct {
	// Attempts caps the total number of tries (first try included).
	Attempts int

	// BaseDelay is the backoff before the second attempt; each further
	// backoff multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64

	// Jitter spreads each backoff uniformly over [d*(1-J), d*(1+J)].
	Jitter float64

	// Retryable classifies errors; nil uses DefaultRetryable.
	Retryable func(error) bool

	// Op labels this operation's series in the gdmp_retry_* families.
	// Empty disables instrumentation (used by pure backoff computations).
	Op string

	// Registry receives the instrumentation; nil disables it, as an
	// empty Op does.
	Registry *obs.Registry

	// Seed makes jitter deterministic when non-zero (fault-injection
	// harnesses log it so failures replay exactly).
	Seed int64

	// sleep substitutes the backoff sleep in unit tests.
	sleep func(ctx context.Context, d time.Duration) error
}

// DefaultPolicy is the baseline used across the daemons' network paths.
func DefaultPolicy() Policy {
	return Policy{
		Attempts:   3,
		BaseDelay:  50 * time.Millisecond,
		MaxDelay:   2 * time.Second,
		Multiplier: 2,
		Jitter:     0.2,
	}
}

// withDefaults fills unset fields.
func (p Policy) withDefaults() Policy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.2
	}
	return p
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so that Do gives up immediately. A nil err returns
// nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// DefaultRetryable retries every error except permanent marks and context
// cancellation/expiry.
func DefaultRetryable(err error) bool {
	if err == nil {
		return false
	}
	if IsPermanent(err) {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// ExhaustedError reports that a Do gave up; the last attempt's error is
// wrapped, so errors.Is/As see through it.
type ExhaustedError struct {
	Op       string
	Attempts int
	Reason   string // one of the Outcome* values
	Last     error
}

func (e *ExhaustedError) Error() string {
	op := e.Op
	if op == "" {
		op = "operation"
	}
	return fmt.Sprintf("retry: %s gave up (%s) after %d attempts: %v", op, e.Reason, e.Attempts, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// metrics bundles the retry-layer collectors for one registry.
type metrics struct {
	attempts *obs.CounterVec // {op, outcome}
	ops      *obs.CounterVec // {op, outcome}
	backoffs *obs.CounterVec // {op}
	floors   *obs.CounterVec // {op}
	sleep    *obs.Histogram
}

func metricsFor(r *obs.Registry) *metrics {
	return &metrics{
		attempts: r.CounterVec(MetricsPrefix+"_attempts_total",
			"Individual attempts made under a retry policy, by operation and outcome.",
			"op", "outcome"),
		ops: r.CounterVec(MetricsPrefix+"_ops_total",
			"Operations completed under a retry policy, by operation and final outcome.",
			"op", "outcome"),
		backoffs: r.CounterVec(MetricsPrefix+"_backoffs_total",
			"Backoff sleeps taken between attempts, by operation.", "op"),
		floors: r.CounterVec(MetricsPrefix+"_retry_after_floors_total",
			"Backoffs raised to a server-suggested retry-after, by operation.", "op"),
		sleep: r.Histogram(MetricsPrefix+"_backoff_seconds",
			"Backoff sleep durations.", nil),
	}
}

// jitterMu guards the global rand source used when no Seed is set.
var jitterMu sync.Mutex

// Delay returns the backoff before attempt retries+1 (retries >= 1 is the
// number of failures so far), jittered according to the policy.
func (p Policy) Delay(retries int) time.Duration {
	p = p.withDefaults()
	if retries < 1 {
		retries = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < retries; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		var u float64
		if p.Seed != 0 {
			// Deterministic per (seed, retry) pair so replays match.
			u = rand.New(rand.NewSource(p.Seed + int64(retries))).Float64()
		} else {
			jitterMu.Lock()
			u = rand.Float64()
			jitterMu.Unlock()
		}
		d *= 1 - p.Jitter + 2*p.Jitter*u
		if d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
		}
	}
	return time.Duration(d)
}

// RetryAfterOf extracts a server-suggested retry-after hint from err: any
// error in the chain exposing RetryAfter() time.Duration (such as the
// admission package's typed overload rejection) supplies it; zero means
// no hint. Do honors the hint as a floor under the computed backoff.
func RetryAfterOf(err error) time.Duration {
	var ra interface{ RetryAfter() time.Duration }
	if errors.As(err, &ra) {
		return ra.RetryAfter()
	}
	return 0
}

// Sleep waits for d or until the context is done, whichever comes first.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs fn under the policy. fn receives the 1-based attempt number.
// Attempts stop on success, on a non-retryable error, when the attempt cap
// is reached, or when ctx is done; the final error is
// an *ExhaustedError wrapping the last attempt's error (or the error
// itself when classified permanent).
func (p Policy) Do(ctx context.Context, fn func(attempt int) error) error {
	p = p.withDefaults()
	retryable := p.Retryable
	if retryable == nil {
		retryable = DefaultRetryable
	}
	var m *metrics
	if p.Op != "" && p.Registry != nil {
		m = metricsFor(p.Registry)
	}
	sleep := p.sleep
	if sleep == nil {
		sleep = Sleep
	}
	finish := func(outcome string) {
		if m != nil {
			m.ops.WithLabelValues(p.Op, outcome).Inc()
		}
	}

	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			finish(OutcomeCanceled)
			return &ExhaustedError{Op: p.Op, Attempts: attempt - 1, Reason: OutcomeCanceled, Last: err}
		}
		err := fn(attempt)
		if m != nil {
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			m.attempts.WithLabelValues(p.Op, outcome).Inc()
		}
		if err == nil {
			finish(OutcomeOK)
			return nil
		}
		if !retryable(err) {
			finish(OutcomePermanent)
			return err
		}
		if attempt >= p.Attempts {
			finish(OutcomeExhausted)
			return &ExhaustedError{Op: p.Op, Attempts: attempt, Reason: OutcomeExhausted, Last: err}
		}
		d := p.Delay(attempt)
		if ra := RetryAfterOf(err); ra > d {
			// An overloaded server's suggested retry-after is a floor under
			// our own backoff: respecting it lets the server cool instead of
			// amplifying the storm.
			d = ra
			if m != nil {
				m.floors.WithLabelValues(p.Op).Inc()
			}
		}
		if m != nil {
			m.backoffs.WithLabelValues(p.Op).Inc()
			m.sleep.ObserveDuration(d)
		}
		if serr := sleep(ctx, d); serr != nil {
			finish(OutcomeCanceled)
			// Surface both the cancellation (so errors.Is(err,
			// context.Canceled) holds for callers deciding whether to
			// requeue) and the attempt's own failure.
			return &ExhaustedError{Op: p.Op, Attempts: attempt, Reason: OutcomeCanceled, Last: errors.Join(serr, err)}
		}
	}
}
