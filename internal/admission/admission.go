// Package admission is the server-side overload-protection layer of a
// GDMP site. Production replica services on the European DataGrid died
// not from partitions but from self-inflicted load — registration storms,
// retry storms, and background maintenance competing with user traffic —
// so every request entering a site passes through an admission controller
// before it may execute:
//
//   - per-class concurrency limits (control plane, bulk data, background)
//     with a bounded, deadline-aware wait queue: a request whose estimated
//     queue wait exceeds its remaining deadline is rejected immediately
//     with a typed Overloaded error carrying a server-suggested
//     retry-after, so callers back off instead of amplifying the storm;
//   - dead-on-arrival shedding: requests that are already past their
//     propagated deadline are never executed, and a request that finds
//     the queue full is refused with a retry-after;
//   - a brownout mode driven by a load signal (queue depth blended with an
//     admission-latency EWMA): under pressure, background work (scrub,
//     anti-entropy, digest pushes, prefetch) defers until load subsides.
//
// The controller is deliberately dependency-light (only obs) so the RPC
// and GridFTP layers can both thread through it.
package admission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"gdmp/internal/obs"
)

// Class partitions requests by the resource profile of their verb.
type Class int

const (
	// Control is the control plane: catalog lookups, subscriptions,
	// notifications, status — small, latency-sensitive requests.
	Control Class = iota
	// Bulk is the data plane: staging requests and GridFTP transfers.
	Bulk
	// Background is site-initiated maintenance traffic.
	Background

	numClasses
)

// String returns the metric label for the class.
func (c Class) String() string {
	switch c {
	case Control:
		return "control"
	case Bulk:
		return "bulk"
	case Background:
		return "background"
	default:
		return fmt.Sprintf("class%d", int(c))
	}
}

// ErrOverloaded matches (errors.Is) every Overloaded rejection.
var ErrOverloaded = errors.New("admission: overloaded")

// ErrDraining matches Overloaded rejections issued while the controller
// drains for shutdown: new and queued work is refused, in-flight work
// finishes.
var ErrDraining = errors.New("admission: draining")

// Overloaded is a typed admission rejection. It carries the
// server-suggested retry-after, which internal/retry honors as a backoff
// floor and internal/health records as a peer cooldown. It round-trips
// the RPC wire, so remote callers see the same type local callers do.
type Overloaded struct {
	Class  string        // admission class label ("control", "bulk", ...)
	Reason string        // "queue_full", "deadline", "expired", "draining"
	After  time.Duration // server-suggested minimum backoff before retrying
}

// Error implements error.
func (e *Overloaded) Error() string {
	return fmt.Sprintf("admission: %s overloaded (%s): retry after %v", e.Class, e.Reason, e.After)
}

// RetryAfter returns the server-suggested backoff floor.
func (e *Overloaded) RetryAfter() time.Duration { return e.After }

// Is reports ErrOverloaded for every rejection and additionally
// ErrDraining for shutdown rejections.
func (e *Overloaded) Is(target error) bool {
	if target == ErrOverloaded {
		return true
	}
	return target == ErrDraining && e.Reason == "draining"
}

// Request carries the per-call facts admission decides on.
type Request struct {
	// Deadline is the caller's absolute deadline (zero = none). Requests
	// already past it are shed without executing; requests whose estimated
	// queue wait overruns it are rejected immediately.
	Deadline time.Time
}

// Config tunes a Controller. Zero fields take the stated defaults.
type Config struct {
	ControlSlots    int // concurrent control-plane executions (default 64)
	BulkSlots       int // concurrent bulk executions (default 8)
	BackgroundSlots int // concurrent background executions (default 2)

	ControlQueue    int // waiting control requests before refusing (default 256)
	BulkQueue       int // waiting bulk requests (default 64)
	BackgroundQueue int // waiting background requests (default 16)

	// BrownoutEnter and BrownoutExit bound the hysteresis band of the
	// brownout state machine on the load signal in [0,1] (defaults 0.75
	// and 0.25).
	BrownoutEnter float64
	BrownoutExit  float64

	// Alpha is the EWMA smoothing factor for service-time and
	// admission-wait estimates (default 0.3).
	Alpha float64

	// RetryAfterMin floors every server-suggested retry-after
	// (default 50ms).
	RetryAfterMin time.Duration

	// DecayHalfLife is the half-life of the admission-wait component of
	// the load signal when no new grants arrive, so brownout exits even
	// if the storm ends in silence (default 2s).
	DecayHalfLife time.Duration

	// Registry receives the gdmp_admission_* and gdmp_brownout_* metrics
	// (default: a private one).
	Registry *obs.Registry

	// Now substitutes the clock (tests).
	Now func() time.Time
}

// waitRef normalizes the admission-wait EWMA into the load signal: a
// sustained 100ms admission wait saturates the latency component.
const waitRef = 100 * time.Millisecond

// Defaults the slot counts and the brownout entry threshold of a zero
// Config take.
const (
	DefaultControlSlots    = 64
	DefaultBulkSlots       = 8
	DefaultBackgroundSlots = 2
	DefaultBrownoutEnter   = 0.75
)

func (c *Config) withDefaults() Config {
	out := *c
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&out.ControlSlots, DefaultControlSlots)
	def(&out.BulkSlots, DefaultBulkSlots)
	def(&out.BackgroundSlots, DefaultBackgroundSlots)
	def(&out.ControlQueue, 256)
	def(&out.BulkQueue, 64)
	def(&out.BackgroundQueue, 16)
	if out.BrownoutEnter <= 0 || out.BrownoutEnter > 1 {
		out.BrownoutEnter = DefaultBrownoutEnter
	}
	if out.BrownoutExit <= 0 || out.BrownoutExit >= out.BrownoutEnter {
		out.BrownoutExit = out.BrownoutEnter / 3
	}
	if out.Alpha <= 0 || out.Alpha > 1 {
		out.Alpha = 0.3
	}
	if out.RetryAfterMin <= 0 {
		out.RetryAfterMin = 50 * time.Millisecond
	}
	if out.DecayHalfLife <= 0 {
		out.DecayHalfLife = 2 * time.Second
	}
	if out.Registry == nil {
		out.Registry = obs.NewRegistry()
	}
	if out.Now == nil {
		out.Now = time.Now
	}
	return out
}

// Counters is the exact settlement accounting of one class. Every request
// that enters Admit settles in exactly one bucket, so at quiescence
// Requested == Admitted + Rejected + Expired + Drained + Canceled.
type Counters struct {
	Requested uint64 // entered Admit
	Admitted  uint64 // granted a slot (immediately or from the queue)
	Rejected  uint64 // refused: queue full, or estimated wait overran the deadline
	Expired   uint64 // shed: dead on arrival or expired while queued
	Drained   uint64 // refused because the controller is draining
	Canceled  uint64 // caller context canceled while queued
}

func (c Counters) settled() uint64 {
	return c.Admitted + c.Rejected + c.Expired + c.Drained + c.Canceled
}

type waiter struct {
	ready    chan error // buffered 1; nil = admitted
	deadline time.Time
	enq      time.Time
}

type classState struct {
	class    Class
	slots    int
	queueCap int
	inUse    int
	queue    []*waiter
	svcEWMA  float64 // seconds per execution
	waitEWMA float64 // seconds per admission
	lastObs  time.Time
	counts   Counters
}

type metrics struct {
	admitted   *obs.CounterVec   // {class}
	rejected   *obs.CounterVec   // {class, reason}
	wait       *obs.HistogramVec // {class}
	queueDepth *obs.GaugeVec     // {class}
	inFlight   *obs.GaugeVec     // {class}

	brownActive   *obs.Gauge
	brownEntered  *obs.Counter
	brownDeferred *obs.CounterVec // {work}
	brownLoad     *obs.Gauge      // load signal in milli-units
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		admitted: r.CounterVec("gdmp_admission_admitted_total",
			"Requests granted an execution slot, by class.", "class"),
		rejected: r.CounterVec("gdmp_admission_rejected_total",
			"Requests refused before execution, by class and reason.", "class", "reason"),
		wait: r.HistogramVec("gdmp_admission_wait_seconds",
			"Admission wait from arrival to slot grant, by class.", nil, "class"),
		queueDepth: r.GaugeVec("gdmp_admission_queue_depth",
			"Requests currently waiting for a slot, by class.", "class"),
		inFlight: r.GaugeVec("gdmp_admission_in_flight",
			"Requests currently holding a slot, by class.", "class"),
		brownActive: r.Gauge("gdmp_brownout_active",
			"1 while the site is in brownout (background work deferred)."),
		brownEntered: r.Counter("gdmp_brownout_entered_total",
			"Brownout activations since start."),
		brownDeferred: r.CounterVec("gdmp_brownout_deferred_total",
			"Background work units deferred by brownout, by kind.", "work"),
		brownLoad: r.Gauge("gdmp_brownout_load_milli",
			"Current load signal in milli-units (0-1000)."),
	}
}

// Controller is a per-site admission controller. Safe for concurrent use.
type Controller struct {
	cfg Config
	met *metrics
	now func() time.Time

	mu       sync.Mutex
	draining bool
	brown    bool
	load     float64
	classes  [numClasses]*classState
}

// New creates a Controller.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg: cfg,
		met: newMetrics(cfg.Registry),
		now: cfg.Now,
	}
	slots := [numClasses]int{cfg.ControlSlots, cfg.BulkSlots, cfg.BackgroundSlots}
	queues := [numClasses]int{cfg.ControlQueue, cfg.BulkQueue, cfg.BackgroundQueue}
	for i := range c.classes {
		c.classes[i] = &classState{class: Class(i), slots: slots[i], queueCap: queues[i]}
	}
	return c
}

// Admit asks for an execution slot in class. It returns a release function
// (call exactly once, when the work finishes) or a typed rejection:
// *Overloaded (matching ErrOverloaded, and ErrDraining during shutdown)
// when the request cannot be served in time, or ctx.Err() if the caller
// gave up while queued. The request's deadline is the earlier of
// req.Deadline and ctx's deadline; a request past it never executes.
func (c *Controller) Admit(ctx context.Context, class Class, req Request) (func(), error) {
	if class < 0 || class >= numClasses {
		class = Control
	}
	cs := c.classes[class]
	now := c.now()

	c.mu.Lock()
	cs.counts.Requested++
	if c.draining {
		cs.counts.Drained++
		c.met.rejected.WithLabelValues(cs.class.String(), "draining").Inc()
		c.mu.Unlock()
		return nil, c.overloaded(cs, "draining", 0)
	}
	deadline := req.Deadline
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() && !now.Before(deadline) {
		// Dead on arrival: the caller's budget is already spent, so
		// executing would only burn cycles on an answer nobody reads.
		cs.counts.Expired++
		c.met.rejected.WithLabelValues(cs.class.String(), "expired").Inc()
		c.updateLoadLocked(now)
		c.mu.Unlock()
		return nil, c.overloaded(cs, "expired", 0)
	}
	if cs.inUse < cs.slots && len(cs.queue) == 0 {
		cs.inUse++
		cs.counts.Admitted++
		c.met.admitted.WithLabelValues(cs.class.String()).Inc()
		c.met.inFlight.WithLabelValues(cs.class.String()).Set(int64(cs.inUse))
		c.observeWaitLocked(cs, 0, now)
		c.updateLoadLocked(now)
		c.mu.Unlock()
		return c.releaseFunc(cs, now), nil
	}

	// The request must wait. Reject now if it is predictably hopeless:
	// serving it after its deadline helps nobody, and telling the caller
	// immediately (with a retry-after) costs one queue slot less.
	est := c.estimateLocked(cs, len(cs.queue)+1)
	if !deadline.IsZero() && now.Add(est).After(deadline) {
		cs.counts.Rejected++
		c.met.rejected.WithLabelValues(cs.class.String(), "deadline").Inc()
		c.updateLoadLocked(now)
		c.mu.Unlock()
		return nil, c.overloaded(cs, "deadline", est)
	}
	if len(cs.queue) >= cs.queueCap {
		cs.counts.Rejected++
		c.met.rejected.WithLabelValues(cs.class.String(), "queue_full").Inc()
		c.updateLoadLocked(now)
		c.mu.Unlock()
		return nil, c.overloaded(cs, "queue_full", est)
	}
	w := &waiter{ready: make(chan error, 1), deadline: deadline, enq: now}
	cs.queue = append(cs.queue, w)
	c.met.queueDepth.WithLabelValues(cs.class.String()).Set(int64(len(cs.queue)))
	c.updateLoadLocked(now)
	c.mu.Unlock()

	select {
	case err := <-w.ready:
		if err != nil {
			return nil, err
		}
		return c.releaseFunc(cs, c.now()), nil
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case err := <-w.ready:
			// Settled concurrently with the cancellation.
			if err == nil {
				// Granted to a caller who already left: hand the slot on.
				cs.inUse--
				c.grantLocked(cs)
				c.met.inFlight.WithLabelValues(cs.class.String()).Set(int64(cs.inUse))
				c.mu.Unlock()
				return nil, ctx.Err()
			}
			c.mu.Unlock()
			return nil, err
		default:
		}
		for i, q := range cs.queue {
			if q == w {
				cs.queue = append(cs.queue[:i], cs.queue[i+1:]...)
				break
			}
		}
		cs.counts.Canceled++
		c.met.rejected.WithLabelValues(cs.class.String(), "canceled").Inc()
		c.met.queueDepth.WithLabelValues(cs.class.String()).Set(int64(len(cs.queue)))
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// overloaded builds the typed rejection with its retry-after suggestion.
func (c *Controller) overloaded(cs *classState, reason string, est time.Duration) *Overloaded {
	after := est
	if after < c.cfg.RetryAfterMin {
		after = c.cfg.RetryAfterMin
	}
	return &Overloaded{Class: cs.class.String(), Reason: reason, After: after}
}

// estimateLocked predicts the queue wait at the given queue position from
// the service-time EWMA: position/slots full service waves ahead of us.
func (c *Controller) estimateLocked(cs *classState, position int) time.Duration {
	if cs.svcEWMA <= 0 {
		return 0
	}
	waves := float64(position) / float64(cs.slots)
	return time.Duration(cs.svcEWMA * waves * float64(time.Second))
}

func (c *Controller) observeWaitLocked(cs *classState, wait time.Duration, now time.Time) {
	sec := wait.Seconds()
	if cs.lastObs.IsZero() {
		cs.waitEWMA = sec
	} else {
		cs.waitEWMA = c.cfg.Alpha*sec + (1-c.cfg.Alpha)*cs.waitEWMA
	}
	cs.lastObs = now
	c.met.wait.WithLabelValues(cs.class.String()).Observe(sec)
}

// releaseFunc hands the slot back and promotes queued waiters. Safe to
// call more than once; only the first call releases.
func (c *Controller) releaseFunc(cs *classState, start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			end := c.now()
			c.mu.Lock()
			cs.inUse--
			svc := end.Sub(start).Seconds()
			if cs.svcEWMA == 0 {
				cs.svcEWMA = svc
			} else {
				cs.svcEWMA = c.cfg.Alpha*svc + (1-c.cfg.Alpha)*cs.svcEWMA
			}
			c.grantLocked(cs)
			c.met.inFlight.WithLabelValues(cs.class.String()).Set(int64(cs.inUse))
			c.updateLoadLocked(end)
			c.mu.Unlock()
		})
	}
}

// grantLocked promotes queued waiters into free slots, shedding any whose
// deadline expired while they waited — those never execute.
func (c *Controller) grantLocked(cs *classState) {
	now := c.now()
	for cs.inUse < cs.slots && len(cs.queue) > 0 {
		w := cs.queue[0]
		cs.queue = cs.queue[1:]
		if !w.deadline.IsZero() && !now.Before(w.deadline) {
			cs.counts.Expired++
			c.met.rejected.WithLabelValues(cs.class.String(), "expired").Inc()
			w.ready <- c.overloaded(cs, "expired", 0)
			continue
		}
		cs.inUse++
		cs.counts.Admitted++
		c.met.admitted.WithLabelValues(cs.class.String()).Inc()
		c.observeWaitLocked(cs, now.Sub(w.enq), now)
		w.ready <- nil
	}
	c.met.queueDepth.WithLabelValues(cs.class.String()).Set(int64(len(cs.queue)))
}

// updateLoadLocked recomputes the load signal and steps the brownout
// state machine. Load is the worse of two normalized components: queue
// fullness and the admission-wait EWMA (decayed over time so a storm
// that ends in silence still cools).
func (c *Controller) updateLoadLocked(now time.Time) {
	var load float64
	for _, cs := range c.classes {
		if cs.queueCap > 0 {
			if f := float64(len(cs.queue)) / float64(cs.queueCap); f > load {
				load = f
			}
		}
		w := cs.waitEWMA
		if w > 0 && !cs.lastObs.IsZero() {
			if elapsed := now.Sub(cs.lastObs); elapsed > 0 {
				w *= math.Exp2(-float64(elapsed) / float64(c.cfg.DecayHalfLife))
			}
		}
		if f := w / waitRef.Seconds(); f > load {
			load = f
		}
	}
	if load > 1 {
		load = 1
	}
	c.load = load
	c.met.brownLoad.Set(int64(load * 1000))
	if !c.brown && load >= c.cfg.BrownoutEnter {
		c.brown = true
		c.met.brownEntered.Inc()
		c.met.brownActive.Set(1)
	} else if c.brown && load <= c.cfg.BrownoutExit {
		c.brown = false
		c.met.brownActive.Set(0)
	}
}

// Allow asks whether a unit of background work (named for metrics:
// "scrub", "antientropy", "digest", "prefetch") may run now. During
// brownout or drain it is deferred and counted; the caller should skip
// the round and retry on its next tick.
func (c *Controller) Allow(work string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return false
	}
	c.updateLoadLocked(c.now())
	if c.brown {
		c.met.brownDeferred.WithLabelValues(work).Inc()
		return false
	}
	return true
}

// Drain refuses all queued and future work with a draining rejection
// (matching ErrDraining) while in-flight work finishes. Idempotent.
func (c *Controller) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	for _, cs := range c.classes {
		for _, w := range cs.queue {
			cs.counts.Drained++
			c.met.rejected.WithLabelValues(cs.class.String(), "draining").Inc()
			w.ready <- c.overloaded(cs, "draining", 0)
		}
		cs.queue = nil
		c.met.queueDepth.WithLabelValues(cs.class.String()).Set(0)
	}
}

// Browned reports whether brownout is active, refreshing the load signal
// first.
func (c *Controller) Browned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updateLoadLocked(c.now())
	return c.brown
}

// Load returns the current load signal in [0,1].
func (c *Controller) Load() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updateLoadLocked(c.now())
	return c.load
}

// ClassStats returns the exact settlement accounting of one class.
func (c *Controller) ClassStats(class Class) Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.classes[class].counts
}

// Settled reports whether every request that entered Admit has settled
// into exactly one accounting bucket (no waiters pending). Tests assert
// this at quiescence.
func (c *Controller) Settled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cs := range c.classes {
		if cs.counts.Requested != cs.counts.settled() || len(cs.queue) != 0 {
			return false
		}
	}
	return true
}
