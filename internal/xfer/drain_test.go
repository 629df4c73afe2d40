package xfer

import (
	"context"
	"errors"
	"testing"
	"time"

	"gdmp/internal/obs"
)

// TestDrainWaitsForQueuedAndRunning checks that a drain with room in its
// deadline lets every admitted job — running or still queued — finish.
func TestDrainWaitsForQueuedAndRunning(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	defer s.Close()

	release := make(chan struct{})
	ran := make(map[string]chan struct{})
	var tickets []*Ticket
	for _, key := range []string{"running", "queued-1", "queued-2"} {
		done := make(chan struct{})
		ran[key] = done
		tickets = append(tickets, s.Submit(key, 0, func(ctx context.Context) error {
			<-release
			close(done)
			return nil
		}))
	}

	drained := make(chan struct{})
	go func() {
		abandoned, err := s.Drain(context.Background())
		if err != nil || len(abandoned) != 0 {
			t.Errorf("Drain = %v, %v; want clean drain", abandoned, err)
		}
		close(drained)
	}()

	// Drain must not return while jobs are still admitted.
	select {
	case <-drained:
		t.Fatal("Drain returned with jobs still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last job finished")
	}
	for key, done := range ran {
		select {
		case <-done:
		default:
			t.Fatalf("job %q never ran during drain", key)
		}
	}
	for _, tk := range tickets {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("ticket err = %v, want nil", err)
		}
	}
}

// TestDrainRejectsNewSubmissions checks admission control: once draining,
// new keys fail fast with ErrDraining, but joining an in-flight key still
// coalesces.
func TestDrainRejectsNewSubmissions(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})
	defer s.Close()

	release := make(chan struct{})
	inflight := s.Submit("inflight", 0, func(ctx context.Context) error {
		<-release
		return nil
	})

	go s.Drain(context.Background())
	waitFor(t, func() bool { return s.Draining() })

	rejected := s.Submit("newcomer", 0, func(ctx context.Context) error { return nil })
	if err := rejected.Wait(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("new submission during drain: err = %v, want ErrDraining", err)
	}

	joined := s.Submit("inflight", 0, func(ctx context.Context) error {
		t.Error("dedup join ran a second job body")
		return nil
	})
	close(release)
	if err := joined.Wait(context.Background()); err != nil {
		t.Fatalf("dedup join during drain: err = %v, want the job's nil", err)
	}
	if err := inflight.Wait(context.Background()); err != nil {
		t.Fatalf("in-flight job failed during drain: %v", err)
	}
}

// TestDrainTimeoutReportsAbandoned checks that an expiring drain context
// returns the keys of every job it could not wait out.
func TestDrainTimeoutReportsAbandoned(t *testing.T) {
	s := New(Config{Workers: 1, Registry: obs.NewRegistry()})

	release := make(chan struct{})
	s.Submit("stuck-running", 0, func(ctx context.Context) error {
		<-release
		return nil
	})
	waitFor(t, func() bool { return queueDepth(s) == 0 })
	s.Submit("stuck-queued", 0, func(ctx context.Context) error {
		<-release
		return nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	abandoned, err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain err = %v, want deadline exceeded", err)
	}
	if len(abandoned) != 2 || abandoned[0] != "stuck-queued" || abandoned[1] != "stuck-running" {
		t.Fatalf("abandoned = %v, want [stuck-queued stuck-running]", abandoned)
	}
	close(release)
	s.Close()
}

// TestDrainEmptySchedulerReturnsImmediately checks the no-work fast path.
func TestDrainEmptySchedulerReturnsImmediately(t *testing.T) {
	s := New(Config{Workers: 2, Registry: obs.NewRegistry()})
	defer s.Close()
	abandoned, err := s.Drain(context.Background())
	if err != nil || abandoned != nil {
		t.Fatalf("Drain of idle scheduler = %v, %v", abandoned, err)
	}
	if !s.Draining() {
		t.Fatal("scheduler not marked draining")
	}
}

// waitFor polls cond until true or the test deadline budget runs out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
