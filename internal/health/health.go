// Package health is the site's per-peer health scoreboard and circuit
// breaker. The EU DataGrid operations experience (PAPERS.md) reports that
// partial WAN failures — sites reachable but black-holing, links slow in
// one direction — dominate grid operation, and "Replica Selection in the
// Globus Data Grid" argues source choice must react to observed peer
// behaviour. This package is the memory those decisions need: every
// GridFTP dial, Request Manager dial, and transfer outcome feeds a
// per-peer record (EWMA latency with variance, EWMA throughput,
// consecutive-failure count), and a three-state circuit breaker per peer
// turns that record into admission decisions:
//
//	closed ──(FailureThreshold consecutive failures)──▶ open
//	open ──(decorrelated reopen delay elapses; one probe admitted)──▶ half-open
//	half-open ──(probe succeeds ×ProbeSuccesses)──▶ closed
//	half-open ──(probe fails)──▶ open, with a longer decorrelated delay
//
// While a breaker is open, Begin refuses legs against the peer without
// dialing, so a dead site stops consuming retry budget grid-wide within
// one failure window; the reopen delay is decorrelated-jittered
// (min(cap, base + u·(3·prev − base))) so a fleet of consumers does not
// re-probe a recovering site in lockstep.
//
// The scoreboard also derives the hedged-pull stall deadline: a transfer
// that moves no bytes for longer than a peer's p99-flavored deadline
// (mean + 3σ of observed latency, floored by the time the peer's EWMA
// bandwidth needs to move one progress quantum, times HedgeMultiplier)
// is considered stalled and worth racing against another replica.
//
// Everything is soft state: nothing is journaled, and a restarted site
// rebuilds its scoreboard from live traffic.
package health

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"gdmp/internal/obs"
)

// MetricsPrefix prefixes every scoreboard metric.
const MetricsPrefix = "gdmp_health"

// State is a peer's circuit-breaker state.
type State int

const (
	// StateClosed admits legs freely (the healthy default).
	StateClosed State = iota
	// StateHalfOpen admits a single probe leg; its outcome decides
	// between closed and open.
	StateHalfOpen
	// StateOpen refuses legs until the decorrelated reopen delay passes.
	StateOpen
)

// String returns the metric/status-wire label for a state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half_open"
	case StateOpen:
		return "open"
	}
	return "unknown"
}

// progressQuantum is the byte unit the stall deadline is derived from: a
// healthy stream is expected to move at least this much within one
// deadline window.
const progressQuantum = 256 << 10

// Config tunes a Board. The zero value takes every default.
type Config struct {
	// FailureThreshold is how many consecutive failed legs open a peer's
	// breaker (default 3).
	FailureThreshold int

	// ReopenBase is the first delay before an open breaker admits a
	// reopen probe; each failed probe grows it with decorrelated jitter
	// up to ReopenMax (defaults 2s and 60s).
	ReopenBase time.Duration
	ReopenMax  time.Duration

	// ProbeSuccesses is how many consecutive half-open probe successes
	// close the breaker (default 1).
	ProbeSuccesses int

	// Alpha is the EWMA smoothing factor for latency and bandwidth
	// (default 0.3; higher weighs recent samples more).
	Alpha float64

	// HedgeMultiplier scales the p99 progress estimate into the stall
	// deadline; HedgeMin and HedgeMax clamp the result (defaults 4,
	// 250ms, 30s).
	HedgeMultiplier float64
	HedgeMin        time.Duration
	HedgeMax        time.Duration

	// Seed makes the decorrelated reopen jitter deterministic when
	// non-zero (chaos harnesses log it so failures replay exactly).
	Seed int64

	// Registry receives the gdmp_health_* metrics (private when nil).
	Registry *obs.Registry

	// Now substitutes the clock in tests.
	Now func() time.Time
}

// Defaults the breaker fields of a zero Config take.
const (
	DefaultFailureThreshold = 3
	DefaultReopenBase       = 2 * time.Second
	DefaultReopenMax        = 60 * time.Second
	DefaultProbeSuccesses   = 1
)

func (c Config) withDefaults() Config {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = DefaultFailureThreshold
	}
	if c.ReopenBase <= 0 {
		c.ReopenBase = DefaultReopenBase
	}
	if c.ReopenMax <= 0 {
		c.ReopenMax = DefaultReopenMax
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = DefaultProbeSuccesses
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.HedgeMultiplier <= 0 {
		c.HedgeMultiplier = 4
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 250 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// metrics bundles the scoreboard's collectors.
type metrics struct {
	state       *obs.GaugeVec   // {peer}: 0 closed, 1 half-open, 2 open
	transitions *obs.CounterVec // {peer, to}
	lastChange  *obs.GaugeVec   // {peer}: unix seconds of the last transition
	consecFails *obs.GaugeVec   // {peer}
	bandwidth   *obs.GaugeVec   // {peer}: EWMA bandwidth, Kbit/s
	latency     *obs.GaugeVec   // {peer}: EWMA dial latency, microseconds
	sheds       *obs.CounterVec // {peer}: legs refused by an open breaker
	probes      *obs.CounterVec // {peer, outcome}: reopen probe results
	stalls      *obs.CounterVec // {peer}: transfers declared stalled
	overloads   *obs.CounterVec // {peer}: typed overload rejections recorded
}

func metricsFor(r *obs.Registry) *metrics {
	return &metrics{
		state: r.GaugeVec(MetricsPrefix+"_state",
			"Circuit-breaker state by peer: 0 closed, 1 half-open, 2 open.", "peer"),
		transitions: r.CounterVec(MetricsPrefix+"_transitions_total",
			"Circuit-breaker transitions, by peer and target state.", "peer", "to"),
		lastChange: r.GaugeVec(MetricsPrefix+"_last_transition_seconds",
			"Unix time of a peer's last circuit-breaker transition (or of its first sighting).", "peer"),
		consecFails: r.GaugeVec(MetricsPrefix+"_consecutive_failures",
			"Consecutive failed legs against a peer since its last success.", "peer"),
		bandwidth: r.GaugeVec(MetricsPrefix+"_ewma_bandwidth_kbps",
			"EWMA transfer bandwidth observed from a peer, Kbit/s.", "peer"),
		latency: r.GaugeVec(MetricsPrefix+"_ewma_latency_micros",
			"EWMA dial latency observed against a peer, microseconds.", "peer"),
		sheds: r.CounterVec(MetricsPrefix+"_breaker_sheds_total",
			"Legs refused without a dial because the peer's breaker was open.", "peer"),
		probes: r.CounterVec(MetricsPrefix+"_probes_total",
			"Reopen probe legs admitted through an open breaker, by outcome.", "peer", "outcome"),
		stalls: r.CounterVec(MetricsPrefix+"_stalls_total",
			"Transfers declared stalled past the peer's hedge deadline.", "peer"),
		overloads: r.CounterVec(MetricsPrefix+"_overloads_total",
			"Typed overload rejections recorded against a peer.", "peer"),
	}
}

// peer is the scoreboard record for one endpoint.
type peer struct {
	addr  string
	state State

	consecFails int

	// EWMA of dial latency (seconds) and its EWMA variance, for the
	// p99-flavored stall deadline; latOK is false until the first sample.
	latMean, latVar float64
	latOK           bool

	// EWMA of transfer bandwidth (bytes/second); bwOK gates ranking.
	bw   float64
	bwOK bool

	// Open-state bookkeeping: when the next reopen probe may run, and
	// the current decorrelated delay it was derived from.
	reopenAt    time.Time
	reopenDelay time.Duration

	// Half-open bookkeeping: whether the probe slot is taken, and how
	// many consecutive probe successes have accumulated.
	probeInFlight bool
	probeOKs      int

	// coolUntil holds the peer out of rotation after a typed overload
	// rejection: the peer is not failing, it is shedding, so the breaker
	// does not advance — the peer just rests for the suggested interval.
	coolUntil time.Time
}

// Board is the per-peer scoreboard; safe for concurrent use.
type Board struct {
	cfg Config
	met *metrics

	mu    sync.Mutex
	rng   *rand.Rand
	peers map[string]*peer
}

// New builds a Board.
func New(cfg Config) *Board {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Board{
		cfg:   cfg,
		met:   metricsFor(cfg.Registry),
		rng:   rand.New(rand.NewSource(seed)),
		peers: make(map[string]*peer),
	}
}

// peerLocked returns (creating if needed) the record for addr.
func (b *Board) peerLocked(addr string) *peer {
	p, ok := b.peers[addr]
	if !ok {
		p = &peer{addr: addr}
		b.peers[addr] = p
		b.met.state.WithLabelValues(addr).Set(0)
		b.met.lastChange.WithLabelValues(addr).Set(b.cfg.Now().Unix())
	}
	return p
}

// transitionLocked moves a peer to a new breaker state.
func (b *Board) transitionLocked(p *peer, to State) {
	if p.state == to {
		return
	}
	p.state = to
	b.met.state.WithLabelValues(p.addr).Set(int64(to))
	b.met.lastChange.WithLabelValues(p.addr).Set(b.cfg.Now().Unix())
	b.met.transitions.WithLabelValues(p.addr, to.String()).Inc()
}

// openLocked opens the breaker with the next decorrelated reopen delay:
// min(cap, base + u·(3·prev − base)), the AWS decorrelated-jitter
// schedule, so repeated probe failures back off without synchronizing
// across consumers.
func (b *Board) openLocked(p *peer) {
	prev := p.reopenDelay
	if prev <= 0 {
		p.reopenDelay = b.cfg.ReopenBase
	} else {
		span := 3*float64(prev) - float64(b.cfg.ReopenBase)
		if span < 0 {
			span = 0
		}
		d := time.Duration(float64(b.cfg.ReopenBase) + b.rng.Float64()*span)
		if d > b.cfg.ReopenMax {
			d = b.cfg.ReopenMax
		}
		p.reopenDelay = d
	}
	p.reopenAt = b.cfg.Now().Add(p.reopenDelay)
	p.probeInFlight = false
	p.probeOKs = 0
	b.transitionLocked(p, StateOpen)
}

// failLocked records one failed leg against a peer.
func (b *Board) failLocked(p *peer, probe bool) {
	p.consecFails++
	b.met.consecFails.WithLabelValues(p.addr).Set(int64(p.consecFails))
	if probe {
		b.met.probes.WithLabelValues(p.addr, "error").Inc()
	}
	switch p.state {
	case StateClosed:
		if p.consecFails >= b.cfg.FailureThreshold {
			p.reopenDelay = 0 // restart the decorrelated schedule
			b.openLocked(p)
		}
	case StateHalfOpen:
		// The probe failed: back to open with a longer delay.
		b.openLocked(p)
	}
}

// okLocked records one successful leg against a peer.
func (b *Board) okLocked(p *peer, probe bool) {
	p.consecFails = 0
	b.met.consecFails.WithLabelValues(p.addr).Set(0)
	if probe {
		b.met.probes.WithLabelValues(p.addr, "ok").Inc()
	}
	switch p.state {
	case StateHalfOpen:
		p.probeOKs++
		if p.probeOKs >= b.cfg.ProbeSuccesses {
			p.reopenDelay = 0
			b.transitionLocked(p, StateClosed)
		}
	case StateOpen:
		// A success observed through another path (e.g. a control-plane
		// dial) while open: the peer is back.
		p.reopenDelay = 0
		b.transitionLocked(p, StateClosed)
	}
}

// Usable reports (without side effects) whether a leg against addr would
// currently be admitted: closed breakers always, open ones only once
// their reopen delay has passed, half-open ones only while the probe
// slot is free.
func (b *Board) Usable(addr string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.peers[addr]
	if !ok {
		return true
	}
	if b.cfg.Now().Before(p.coolUntil) {
		return false
	}
	switch p.state {
	case StateOpen:
		return !b.cfg.Now().Before(p.reopenAt)
	case StateHalfOpen:
		return !p.probeInFlight
	}
	return true
}

// Begin admits one leg against addr. It returns ok=false — counting a
// shed, without dialing — while the peer's breaker is open and the
// reopen delay has not passed, or while another probe already holds the
// half-open slot. When admitted, the returned end must be called exactly
// once with the leg's outcome; it feeds the scoreboard and drives the
// breaker.
func (b *Board) Begin(addr string) (end func(bytes int64, elapsed time.Duration, err error), ok bool) {
	return b.begin(addr, false)
}

// BeginForced is Begin for a caller with no alternative source: an open
// breaker is overridden by converting the leg into an early reopen probe
// instead of refusing it, so a single-source pull never deadlocks behind
// its only peer's breaker.
func (b *Board) BeginForced(addr string) (end func(bytes int64, elapsed time.Duration, err error), ok bool) {
	return b.begin(addr, true)
}

func (b *Board) begin(addr string, forced bool) (func(int64, time.Duration, error), bool) {
	b.mu.Lock()
	p := b.peerLocked(addr)
	probe := false
	switch p.state {
	case StateOpen:
		if !forced && b.cfg.Now().Before(p.reopenAt) {
			b.met.sheds.WithLabelValues(addr).Inc()
			b.mu.Unlock()
			return nil, false
		}
		b.transitionLocked(p, StateHalfOpen)
		p.probeInFlight = true
		probe = true
	case StateHalfOpen:
		if p.probeInFlight && !forced {
			b.met.sheds.WithLabelValues(addr).Inc()
			b.mu.Unlock()
			return nil, false
		}
		p.probeInFlight = true
		probe = true
	}
	b.mu.Unlock()
	return func(bytes int64, elapsed time.Duration, err error) {
		b.mu.Lock()
		defer b.mu.Unlock()
		if probe {
			p.probeInFlight = false
		}
		if err != nil {
			b.failLocked(p, probe)
			return
		}
		if bytes > 0 && elapsed > 0 {
			b.noteBandwidthLocked(p, float64(bytes)/elapsed.Seconds())
		}
		b.okLocked(p, probe)
	}, true
}

// noteBandwidthLocked folds one throughput sample into the EWMA.
func (b *Board) noteBandwidthLocked(p *peer, bps float64) {
	if !p.bwOK {
		p.bw = bps
		p.bwOK = true
	} else {
		a := b.cfg.Alpha
		p.bw = (1-a)*p.bw + a*bps
	}
	b.met.bandwidth.WithLabelValues(p.addr).Set(int64(p.bw * 8 / 1000))
}

// ObserveOverload records a typed overload rejection from addr. An
// overloaded peer is shedding, not failing, so the breaker does not
// advance; instead the peer is held out of rotation (Usable reports
// false) for the server-suggested retry-after, letting the storm cool
// instead of amplifying while healthier replicas carry the load.
// retryAfter <= 0 falls back to the breaker's reopen base delay.
func (b *Board) ObserveOverload(addr string, retryAfter time.Duration) {
	if retryAfter <= 0 {
		retryAfter = b.cfg.ReopenBase
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peerLocked(addr)
	if until := b.cfg.Now().Add(retryAfter); until.After(p.coolUntil) {
		p.coolUntil = until
	}
	b.met.overloads.WithLabelValues(addr).Inc()
}

// ObserveLatency folds one dial round-trip into a peer's latency EWMA
// without touching its breaker (the leg outcome carries the verdict).
func (b *Board) ObserveLatency(addr string, rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peerLocked(addr)
	x := rtt.Seconds()
	if !p.latOK {
		p.latMean, p.latVar, p.latOK = x, 0, true
	} else {
		a := b.cfg.Alpha
		d := x - p.latMean
		p.latMean += a * d
		p.latVar = (1-a)*p.latVar + a*d*d
	}
	b.met.latency.WithLabelValues(addr).Set(int64(p.latMean * 1e6))
}

// Observe records a standalone control-plane operation (an rpc dial)
// against a peer: latency feeds the EWMA, and the outcome
// feeds the breaker like a leg of its own.
func (b *Board) Observe(addr string, rtt time.Duration, err error) {
	if err == nil && rtt > 0 {
		b.ObserveLatency(addr, rtt)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peerLocked(addr)
	if err != nil {
		b.failLocked(p, false)
	} else {
		b.okLocked(p, false)
	}
}

// ObserveStall counts one transfer declared stalled against a peer. The
// stall's breaker consequence arrives through the leg's end callback;
// this is accounting only.
func (b *Board) ObserveStall(addr string) {
	b.met.stalls.WithLabelValues(addr).Inc()
}

// StallDeadline derives the hedge deadline for a peer: HedgeMultiplier
// times the larger of (time to move one progress quantum at the EWMA
// bandwidth) and (mean + 3σ of dial latency), clamped to
// [HedgeMin, HedgeMax]. Zero when the scoreboard has no samples yet —
// the caller falls back to its configured default.
func (b *Board) StallDeadline(addr string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.peers[addr]
	if !ok || (!p.bwOK && !p.latOK) {
		return 0
	}
	var est float64
	if p.bwOK && p.bw > 0 {
		est = progressQuantum / p.bw
	}
	if p.latOK {
		if p99 := p.latMean + 3*math.Sqrt(p.latVar); p99 > est {
			est = p99
		}
	}
	d := time.Duration(b.cfg.HedgeMultiplier * est * float64(time.Second))
	if d < b.cfg.HedgeMin {
		d = b.cfg.HedgeMin
	}
	if d > b.cfg.HedgeMax {
		d = b.cfg.HedgeMax
	}
	return d
}

// Score summarizes a peer for source ranking.
type Score struct {
	// State is the breaker state; ProbeDue marks an open breaker whose
	// reopen delay has passed (the peer owes the grid a probe, and
	// ranking it first is how the probe gets carried by live traffic).
	State    State
	ProbeDue bool

	// BandwidthBps is the EWMA transfer bandwidth (0 until measured).
	BandwidthBps float64
}

// rank orders scores for source selection: probe-due peers first (their
// probe rides the next pull, hedging covers a still-dead peer), then
// closed peers by measured bandwidth, then half-open, then open.
func (s Score) rank() int {
	if s.ProbeDue {
		return 0
	}
	switch s.State {
	case StateClosed:
		return 1
	case StateHalfOpen:
		return 2
	}
	return 3
}

// ScoreOf returns a peer's current ranking score.
func (b *Board) ScoreOf(addr string) Score {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.peers[addr]
	if !ok {
		return Score{}
	}
	sc := Score{State: p.state}
	if p.state == StateOpen && !b.cfg.Now().Before(p.reopenAt) {
		sc.ProbeDue = true
	}
	if p.bwOK {
		sc.BandwidthBps = p.bw
	}
	return sc
}

// Healthier reports whether the source scored a should be tried before
// the one scored b; equal scores leave the caller's order (sort stably).
func Healthier(a, b Score) bool {
	if ra, rb := a.rank(), b.rank(); ra != rb {
		return ra < rb
	}
	return a.BandwidthBps > b.BandwidthBps
}
