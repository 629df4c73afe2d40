package health

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gdmp/internal/obs"
)

// clock is a manual test clock.
type clock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *clock {
	return &clock{now: time.Unix(1_700_000_000, 0)}
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

var errLeg = errors.New("leg failed")

// fail runs one failed leg against addr.
func fail(t *testing.T, b *Board, addr string) {
	t.Helper()
	end, ok := b.Begin(addr)
	if !ok {
		t.Fatalf("Begin(%s) refused while expecting admission", addr)
	}
	end(0, 0, errLeg)
}

// succeed runs one successful leg against addr.
func succeed(t *testing.T, b *Board, addr string, bytes int64, elapsed time.Duration) {
	t.Helper()
	end, ok := b.Begin(addr)
	if !ok {
		t.Fatalf("Begin(%s) refused while expecting admission", addr)
	}
	end(bytes, elapsed, nil)
}

func TestBreakerLifecycle(t *testing.T) {
	ck := newClock()
	b := New(Config{
		FailureThreshold: 3,
		ReopenBase:       2 * time.Second,
		Seed:             1,
		Registry:         obs.NewRegistry(),
		Now:              ck.Now,
	})
	const peer = "site-a:2811"

	// Two failures: still closed (below threshold).
	fail(t, b, peer)
	fail(t, b, peer)
	if got := b.StateOf(peer); got != StateClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	if got := b.ConsecutiveFailures(peer); got != 2 {
		t.Fatalf("consecutive failures = %d, want 2", got)
	}

	// Third consecutive failure opens the breaker.
	fail(t, b, peer)
	if got := b.StateOf(peer); got != StateOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}

	// While open and before the reopen delay: every Begin is refused
	// without a dial (this is the load shed).
	if b.Usable(peer) {
		t.Fatal("open breaker reported usable before reopen delay")
	}
	for i := 0; i < 5; i++ {
		if _, ok := b.Begin(peer); ok {
			t.Fatal("open breaker admitted a leg before reopen delay")
		}
	}

	// After the reopen delay one probe is admitted (half-open) and a
	// concurrent second leg is still refused.
	ck.Advance(2*time.Second + time.Millisecond)
	if !b.Usable(peer) {
		t.Fatal("probe-due breaker reported unusable")
	}
	sc := b.ScoreOf(peer)
	if !sc.ProbeDue || sc.State != StateOpen {
		t.Fatalf("score = %+v, want probe-due open", sc)
	}
	end, ok := b.Begin(peer)
	if !ok {
		t.Fatal("probe not admitted after reopen delay")
	}
	if got := b.StateOf(peer); got != StateHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if _, ok := b.Begin(peer); ok {
		t.Fatal("second probe admitted while slot taken")
	}

	// Probe succeeds: closed again, failure streak reset.
	end(1<<20, time.Second, nil)
	if got := b.StateOf(peer); got != StateClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if got := b.ConsecutiveFailures(peer); got != 0 {
		t.Fatalf("consecutive failures after success = %d, want 0", got)
	}
}

func TestFailedProbeReopensWithLongerDecorrelatedDelay(t *testing.T) {
	ck := newClock()
	b := New(Config{
		FailureThreshold: 1,
		ReopenBase:       time.Second,
		ReopenMax:        8 * time.Second,
		Seed:             42,
		Registry:         obs.NewRegistry(),
		Now:              ck.Now,
	})
	const peer = "site-b:2811"

	fail(t, b, peer) // threshold 1: open immediately
	if got := b.StateOf(peer); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}

	// Walk several probe failures: each reopen delay must stay within
	// the decorrelated-jitter envelope [base, min(max, 3·prev)].
	prev := time.Second
	for round := 0; round < 5; round++ {
		ck.Advance(8*time.Second + time.Millisecond) // past any delay
		end, ok := b.Begin(peer)
		if !ok {
			t.Fatalf("round %d: probe not admitted", round)
		}
		end(0, 0, errLeg)
		if got := b.StateOf(peer); got != StateOpen {
			t.Fatalf("round %d: state after failed probe = %v, want open", round, got)
		}
		b.mu.Lock()
		d := b.peers[peer].reopenDelay
		b.mu.Unlock()
		lo, hi := time.Second, 3*prev
		if hi > 8*time.Second {
			hi = 8 * time.Second
		}
		if d < lo || d > hi {
			t.Fatalf("round %d: reopen delay %v outside [%v, %v]", round, d, lo, hi)
		}
		prev = d
	}
}

func TestDecorrelatedJitterIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		ck := newClock()
		b := New(Config{
			FailureThreshold: 1,
			ReopenBase:       time.Second,
			ReopenMax:        time.Minute,
			Seed:             seed,
			Registry:         obs.NewRegistry(),
			Now:              ck.Now,
		})
		var out []time.Duration
		fail(t, b, "p")
		for i := 0; i < 6; i++ {
			ck.Advance(time.Minute)
			end, _ := b.Begin("p")
			end(0, 0, errLeg)
			b.mu.Lock()
			out = append(out, b.peers["p"].reopenDelay)
			b.mu.Unlock()
		}
		return out
	}
	a, c := run(7), run(7)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], c[i])
		}
	}
}

func TestBeginForcedConvertsOpenBreakerIntoEarlyProbe(t *testing.T) {
	ck := newClock()
	b := New(Config{
		FailureThreshold: 1,
		ReopenBase:       time.Hour, // never due on its own
		Seed:             1,
		Registry:         obs.NewRegistry(),
		Now:              ck.Now,
	})
	fail(t, b, "only-source")
	if _, ok := b.Begin("only-source"); ok {
		t.Fatal("plain Begin admitted through a freshly opened breaker")
	}
	// A single-source pull must never deadlock: forcing converts the leg
	// into an early probe.
	end, ok := b.BeginForced("only-source")
	if !ok {
		t.Fatal("BeginForced refused")
	}
	if got := b.StateOf("only-source"); got != StateHalfOpen {
		t.Fatalf("state during forced probe = %v, want half-open", got)
	}
	end(1024, time.Millisecond, nil)
	if got := b.StateOf("only-source"); got != StateClosed {
		t.Fatalf("state after forced probe success = %v, want closed", got)
	}
}

func TestControlPlaneObserveFeedsBreakerAndRecovers(t *testing.T) {
	ck := newClock()
	b := New(Config{
		FailureThreshold: 2,
		ReopenBase:       time.Second,
		Seed:             1,
		Registry:         obs.NewRegistry(),
		Now:              ck.Now,
	})
	b.Observe("ctl:4811", 0, errLeg)
	b.Observe("ctl:4811", 0, errLeg)
	if got := b.StateOf("ctl:4811"); got != StateOpen {
		t.Fatalf("state after 2 observed failures = %v, want open", got)
	}
	// A success observed through another path while open closes the
	// breaker directly — the peer is demonstrably back.
	b.Observe("ctl:4811", 3*time.Millisecond, nil)
	if got := b.StateOf("ctl:4811"); got != StateClosed {
		t.Fatalf("state after observed success = %v, want closed", got)
	}
}

func TestRankingPrefersProbeDueThenBandwidth(t *testing.T) {
	ck := newClock()
	b := New(Config{
		FailureThreshold: 1,
		ReopenBase:       time.Second,
		Seed:             1,
		Registry:         obs.NewRegistry(),
		Now:              ck.Now,
	})
	// fast: 10 MB/s; slow: 1 MB/s; dead: opens, then becomes probe-due.
	succeed(t, b, "fast", 10<<20, time.Second)
	succeed(t, b, "slow", 1<<20, time.Second)
	fail(t, b, "dead")

	if !Healthier(b.ScoreOf("fast"), b.ScoreOf("slow")) {
		t.Fatal("higher-bandwidth closed peer did not rank first")
	}
	if !Healthier(b.ScoreOf("slow"), b.ScoreOf("dead")) {
		t.Fatal("closed peer did not outrank an open one")
	}
	// Unknown peers rank as closed with no bandwidth: after measured ones.
	if !Healthier(b.ScoreOf("slow"), b.ScoreOf("never-seen")) {
		t.Fatal("measured peer did not outrank an unmeasured one")
	}
	// Once the reopen delay passes, the dead peer owes a probe and ranks
	// first so live traffic carries the probe (hedging covers the risk).
	ck.Advance(time.Second + time.Millisecond)
	if !Healthier(b.ScoreOf("dead"), b.ScoreOf("fast")) {
		t.Fatal("probe-due peer did not rank first")
	}
}

func TestStallDeadlineDerivation(t *testing.T) {
	b := New(Config{
		HedgeMultiplier: 4,
		HedgeMin:        100 * time.Millisecond,
		HedgeMax:        10 * time.Second,
		Seed:            1,
		Registry:        obs.NewRegistry(),
	})
	// Unknown peer: no estimate, caller falls back to its default.
	if d := b.StallDeadline("unknown"); d != 0 {
		t.Fatalf("deadline for unknown peer = %v, want 0", d)
	}
	// 1 MiB/s bandwidth → quantum (256 KiB) takes 250ms → ×4 = 1s.
	succeed(t, b, "measured", 1<<20, time.Second)
	if d := b.StallDeadline("measured"); d != time.Second {
		t.Fatalf("deadline = %v, want 1s", d)
	}
	// A very fast peer clamps to HedgeMin.
	succeed(t, b, "fast", 10<<30, time.Second)
	if d := b.StallDeadline("fast"); d != 100*time.Millisecond {
		t.Fatalf("fast deadline = %v, want HedgeMin", d)
	}
	// A glacial peer clamps to HedgeMax.
	succeed(t, b, "glacial", 64, time.Second)
	if d := b.StallDeadline("glacial"); d != 10*time.Second {
		t.Fatalf("glacial deadline = %v, want HedgeMax", d)
	}
	// Latency-only knowledge still yields a deadline (mean + 3σ, ×4).
	b.ObserveLatency("lat-only", 50*time.Millisecond)
	if d := b.StallDeadline("lat-only"); d != 200*time.Millisecond {
		t.Fatalf("latency-only deadline = %v, want 200ms", d)
	}
}

// TestSnapshotSortedWithScoreboardFields: the registry's exposition is the
// scoreboard's snapshot — one row per peer, sorted by address, carrying
// breaker state, failure streak, EWMA bandwidth and latency, and the time
// of the last transition.
func TestSnapshotSortedWithScoreboardFields(t *testing.T) {
	ck := newClock()
	reg := obs.NewRegistry()
	b := New(Config{
		FailureThreshold: 1,
		ReopenBase:       time.Second,
		Seed:             1,
		Registry:         reg,
		Now:              ck.Now,
	})
	// 2 MiB over 1s = 16.777 Mbit/s ≈ 16777 Kbit/s.
	succeed(t, b, "b-peer", 2<<20, time.Second)
	b.ObserveLatency("b-peer", 2*time.Millisecond)
	ck.Advance(time.Minute)
	fail(t, b, "a-peer")

	text := reg.Text()
	if a, bb := strings.Index(text, `gdmp_health_state{peer="a-peer"}`), strings.Index(text, `gdmp_health_state{peer="b-peer"}`); a < 0 || bb < a {
		t.Fatalf("state rows missing or not sorted by peer:\n%s", text)
	}
	for _, row := range []string{
		`gdmp_health_state{peer="a-peer"} 2`,
		`gdmp_health_consecutive_failures{peer="a-peer"} 1`,
		fmt.Sprintf(`gdmp_health_last_transition_seconds{peer="a-peer"} %d`, ck.Now().Unix()),
		`gdmp_health_state{peer="b-peer"} 0`,
		`gdmp_health_ewma_bandwidth_kbps{peer="b-peer"} 16777`,
		`gdmp_health_ewma_latency_micros{peer="b-peer"} 2000`,
		fmt.Sprintf(`gdmp_health_last_transition_seconds{peer="b-peer"} %d`, ck.Now().Add(-time.Minute).Unix()),
	} {
		if !strings.Contains(text, row+"\n") {
			t.Errorf("exposition lacks %q", row)
		}
	}
}

func TestHealthMetricsGolden(t *testing.T) {
	ck := newClock()
	reg := obs.NewRegistry()
	b := New(Config{
		FailureThreshold: 2,
		ReopenBase:       time.Second,
		Seed:             1,
		Registry:         reg,
		Now:              ck.Now,
	})

	// site-a: one clean leg (1 MiB over 1s) and a dial latency sample.
	succeed(t, b, "site-a", 1<<20, time.Second)
	b.ObserveLatency("site-a", 5*time.Millisecond)
	// site-b: two failures open the breaker, one shed, then a probe
	// closes it again.
	fail(t, b, "site-b")
	fail(t, b, "site-b")
	if _, ok := b.Begin("site-b"); ok {
		t.Fatal("expected shed")
	}
	ck.Advance(time.Second + time.Millisecond)
	end, ok := b.Begin("site-b")
	if !ok {
		t.Fatal("probe not admitted")
	}
	end(2<<20, time.Second, nil)
	// One transfer declared stalled against site-a.
	b.ObserveStall("site-a")

	want := strings.Join([]string{
		`# HELP gdmp_health_breaker_sheds_total Legs refused without a dial because the peer's breaker was open.`,
		`# TYPE gdmp_health_breaker_sheds_total counter`,
		`gdmp_health_breaker_sheds_total{peer="site-b"} 1`,
		`# HELP gdmp_health_consecutive_failures Consecutive failed legs against a peer since its last success.`,
		`# TYPE gdmp_health_consecutive_failures gauge`,
		`gdmp_health_consecutive_failures{peer="site-a"} 0`,
		`gdmp_health_consecutive_failures{peer="site-b"} 0`,
		`# HELP gdmp_health_ewma_bandwidth_kbps EWMA transfer bandwidth observed from a peer, Kbit/s.`,
		`# TYPE gdmp_health_ewma_bandwidth_kbps gauge`,
		`gdmp_health_ewma_bandwidth_kbps{peer="site-a"} 8388`,
		`gdmp_health_ewma_bandwidth_kbps{peer="site-b"} 16777`,
		`# HELP gdmp_health_ewma_latency_micros EWMA dial latency observed against a peer, microseconds.`,
		`# TYPE gdmp_health_ewma_latency_micros gauge`,
		`gdmp_health_ewma_latency_micros{peer="site-a"} 5000`,
		`# HELP gdmp_health_last_transition_seconds Unix time of a peer's last circuit-breaker transition (or of its first sighting).`,
		`# TYPE gdmp_health_last_transition_seconds gauge`,
		`gdmp_health_last_transition_seconds{peer="site-a"} 1700000000`,
		`gdmp_health_last_transition_seconds{peer="site-b"} 1700000001`,
		`# HELP gdmp_health_overloads_total Typed overload rejections recorded against a peer.`,
		`# TYPE gdmp_health_overloads_total counter`,
		`# HELP gdmp_health_probes_total Reopen probe legs admitted through an open breaker, by outcome.`,
		`# TYPE gdmp_health_probes_total counter`,
		`gdmp_health_probes_total{peer="site-b",outcome="ok"} 1`,
		`# HELP gdmp_health_stalls_total Transfers declared stalled past the peer's hedge deadline.`,
		`# TYPE gdmp_health_stalls_total counter`,
		`gdmp_health_stalls_total{peer="site-a"} 1`,
		`# HELP gdmp_health_state Circuit-breaker state by peer: 0 closed, 1 half-open, 2 open.`,
		`# TYPE gdmp_health_state gauge`,
		`gdmp_health_state{peer="site-a"} 0`,
		`gdmp_health_state{peer="site-b"} 0`,
		`# HELP gdmp_health_transitions_total Circuit-breaker transitions, by peer and target state.`,
		`# TYPE gdmp_health_transitions_total counter`,
		`gdmp_health_transitions_total{peer="site-b",to="closed"} 1`,
		`gdmp_health_transitions_total{peer="site-b",to="half_open"} 1`,
		`gdmp_health_transitions_total{peer="site-b",to="open"} 1`,
		``,
	}, "\n")
	if got := reg.Text(); got != want {
		t.Fatalf("health exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestBoardConcurrencySmoke(t *testing.T) {
	reg := obs.NewRegistry()
	b := New(Config{Seed: 1, Registry: reg})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			peers := []string{"p1", "p2", "p3"}
			for j := 0; j < 200; j++ {
				addr := peers[(i+j)%len(peers)]
				if end, ok := b.Begin(addr); ok {
					var err error
					if j%5 == 0 {
						err = errLeg
					}
					end(int64(j)*100, time.Millisecond, err)
				}
				b.ObserveLatency(addr, time.Millisecond)
				b.Usable(addr)
				b.ScoreOf(addr)
				b.StallDeadline(addr)
			}
		}(i)
	}
	wg.Wait()
	if got := strings.Count(reg.Text(), "gdmp_health_state{"); got != 3 {
		t.Fatalf("state rows = %d, want 3", got)
	}
}

func TestObserveOverloadCoolsPeerWithoutBreakerAdvance(t *testing.T) {
	ck := newClock()
	reg := obs.NewRegistry()
	b := New(Config{Registry: reg, Now: ck.Now, Seed: 1})
	const addr = "b.example:2811"

	succeed(t, b, addr, 1<<20, time.Second)
	if !b.Usable(addr) {
		t.Fatal("peer should start usable")
	}
	b.ObserveOverload(addr, 500*time.Millisecond)
	if b.Usable(addr) {
		t.Fatal("peer should be cooling after a typed overload rejection")
	}
	if got := b.StateOf(addr); got != StateClosed {
		t.Fatalf("state = %v, want closed (overload must not advance the breaker)", got)
	}
	if got := b.ConsecutiveFailures(addr); got != 0 {
		t.Fatalf("consecutive failures = %d, want 0", got)
	}
	ck.Advance(600 * time.Millisecond)
	if !b.Usable(addr) {
		t.Fatal("cooldown should have expired")
	}
	if got := reg.CounterVec(MetricsPrefix+"_overloads_total", "", "peer").
		WithLabelValues(addr).Value(); got != 1 {
		t.Fatalf("overloads counter = %d, want 1", got)
	}
}

func TestObserveOverloadDefaultsToReopenBase(t *testing.T) {
	ck := newClock()
	b := New(Config{Registry: obs.NewRegistry(), Now: ck.Now, ReopenBase: 2 * time.Second, Seed: 1})
	const addr = "c.example:2811"
	b.ObserveOverload(addr, 0)
	ck.Advance(1900 * time.Millisecond)
	if b.Usable(addr) {
		t.Fatal("peer should still be cooling for the reopen base delay")
	}
	ck.Advance(200 * time.Millisecond)
	if !b.Usable(addr) {
		t.Fatal("cooldown should have expired after the reopen base delay")
	}
}
