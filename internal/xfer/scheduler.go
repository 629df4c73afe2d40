// Package xfer is the site's replication scheduler: a bounded worker pool
// that owns the pull pipeline. GDMP's producer-consumer model generates
// bursts of pull work — a publication notice covers a whole production
// run — and the paper's testbed observations (wide-area links an order of
// magnitude slower than the tape drives feeding them) make the pull side
// the place where concurrency pays: several files in flight keep a
// long-fat link busy while any one transfer waits on staging or restart
// backoff.
//
// The scheduler provides:
//
//   - a bounded worker pool (Config.Workers) so a burst of notices cannot
//     open an unbounded number of GridFTP sessions;
//   - FIFO admission within a priority level, higher priorities first;
//   - in-flight deduplication: submissions sharing a key coalesce onto one
//     job, and every waiter receives the job's real error (not a generic
//     "someone else failed" placeholder);
//   - per-source concurrency caps (Config.PerSource, via AcquireSource) so
//     one destination cannot saturate a single producer's GridFTP server;
//   - context plumbing end to end: each job runs under a context canceled
//     when the scheduler closes or when every waiter has abandoned the
//     job, so an unwanted transfer stops mid-stream instead of running
//     out;
//   - gdmp_xfer_* instrumentation (queue depth, active workers, per-source
//     in-flight transfers, job latency, outcomes) in internal/obs.
package xfer

import (
	"container/heap"
	"context"
	"errors"
	"sort"
	"sync"

	"gdmp/internal/obs"
)

// ErrDraining is returned by tickets for submissions rejected because the
// scheduler is draining for shutdown.
var ErrDraining = errors.New("xfer: scheduler draining")

// ErrQueueFull is returned by tickets rejected because the queue reached
// Config.MaxQueue: either the new submission (when nothing queued is lower
// priority) or a displaced lowest-priority queued job.
var ErrQueueFull = errors.New("xfer: queue full")

// MetricsPrefix prefixes every scheduler metric.
const MetricsPrefix = "gdmp_xfer"

// Job is one unit of pull work. It must honor ctx: the scheduler cancels
// it when the last waiter abandons the job or the scheduler closes.
type Job func(ctx context.Context) error

// DefaultWorkers is the worker count a zero Config.Workers takes.
const DefaultWorkers = 4

// Config tunes a Scheduler.
type Config struct {
	// Workers bounds concurrently running jobs (default DefaultWorkers).
	Workers int

	// PerSource caps jobs transferring from one source at a time,
	// enforced via AcquireSource (0 = unlimited).
	PerSource int

	// MaxQueue caps jobs admitted but not yet running (0 = unbounded).
	// At the cap, admission is priority-aware: a higher-priority arrival
	// displaces the lowest-priority queued job (which fails with
	// ErrQueueFull); otherwise the arrival itself is rejected.
	MaxQueue int

	// Registry receives the gdmp_xfer_* metrics (private when nil).
	Registry *obs.Registry
}

// metrics bundles the scheduler's collectors.
type metrics struct {
	queueDepth    *obs.Gauge
	activeWorkers *obs.Gauge
	inflight      *obs.GaugeVec // {source}
	jobSeconds    *obs.Histogram
	jobs          *obs.CounterVec // {outcome}
	dedups        *obs.Counter
}

func metricsFor(r *obs.Registry) *metrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	return &metrics{
		queueDepth: r.Gauge(MetricsPrefix+"_queue_depth",
			"Jobs admitted but not yet running."),
		activeWorkers: r.Gauge(MetricsPrefix+"_active_workers",
			"Workers currently running a job."),
		inflight: r.GaugeVec(MetricsPrefix+"_inflight",
			"Transfers currently holding a per-source slot, by source.", "source"),
		jobSeconds: r.Histogram(MetricsPrefix+"_job_seconds",
			"Wall-clock duration of completed jobs.", nil),
		jobs: r.CounterVec(MetricsPrefix+"_jobs_total",
			"Completed jobs by outcome.", "outcome"),
		dedups: r.Counter(MetricsPrefix+"_dedup_total",
			"Submissions coalesced onto an already-admitted job."),
	}
}

// ticketState tracks a job through its life.
type ticketState int

const (
	stateQueued ticketState = iota
	stateRunning
	stateDone
)

// Ticket is the handle every submitter of a key shares. Wait blocks until
// the job finishes and returns its real error; abandoning every waiter
// cancels the job.
type Ticket struct {
	s        *Scheduler
	key      string
	priority int
	seq      uint64
	fn       Job
	index    int // heap index while queued; -1 otherwise

	// Guarded by s.mu.
	state   ticketState
	waiters int
	cancel  context.CancelFunc // set while running

	done chan struct{}
	err  error // written before done closes; read-only afterwards
}

// Wait blocks until the job completes or ctx is done. On completion every
// waiter receives the job's actual error. A waiter whose ctx expires
// abandons the ticket; when the last waiter abandons, the job itself is
// canceled (dequeued if still pending, interrupted if running).
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		t.abandon()
		// The job may have completed while we raced to abandon it; prefer
		// the real outcome when it is already there.
		select {
		case <-t.done:
			return t.err
		default:
			return ctx.Err()
		}
	}
}

// Done exposes the completion channel for select-based callers; Err is
// valid once Done is closed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Err returns the job's error; only meaningful after Done is closed.
func (t *Ticket) Err() error { return t.err }

// abandon drops one waiter's interest; at zero waiters the job is canceled.
func (t *Ticket) abandon() {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.state == stateDone {
		return
	}
	t.waiters--
	if t.waiters > 0 {
		return
	}
	switch t.state {
	case stateQueued:
		heap.Remove(&s.queue, t.index)
		s.met.queueDepth.Set(int64(s.queue.Len()))
		s.finishLocked(t, context.Canceled, outcomeAbandoned)
	case stateRunning:
		// The job has given up — every waiter walked away and the cancel
		// is in flight — so it must stop occupying the dedup index: a
		// later submission of the same key starts a fresh job instead of
		// coalescing onto this one's cancellation. The worker still
		// reports this ticket's outcome when the job body returns.
		if cur, ok := s.inflight[t.key]; ok && cur == t {
			delete(s.inflight, t.key)
		}
		t.cancel()
	}
}

// jobHeap orders tickets by priority (higher first), then admission order.
type jobHeap []*Ticket

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *jobHeap) Push(x interface{}) {
	t := x.(*Ticket)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// Outcome label values in gdmp_xfer_jobs_total.
const (
	outcomeOK        = "ok"
	outcomeError     = "error"
	outcomeCanceled  = "canceled"
	outcomeAbandoned = "abandoned"
	outcomeRejected  = "rejected"
)

// Scheduler runs jobs on a bounded worker pool with dedup and priorities.
type Scheduler struct {
	cfg Config
	met *metrics

	ctx    context.Context // canceled by Close; parent of every job ctx
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobHeap
	inflight map[string]*Ticket // queued or running tickets by key
	seq      uint64
	closed   bool
	draining bool

	srcMu sync.Mutex
	srcs  map[string]chan struct{} // per-source slot semaphores

	wg sync.WaitGroup
}

// New starts a scheduler with cfg.Workers workers.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	s := &Scheduler{
		cfg:      cfg,
		met:      metricsFor(cfg.Registry),
		inflight: make(map[string]*Ticket),
		srcs:     make(map[string]chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Workers reports the pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// Submit admits a job under a dedup key. If a job with the same key is
// already queued or running, the submission coalesces onto it (fn is
// dropped) and the returned Ticket shares that job's outcome. priority
// orders admission: higher runs first, ties run FIFO.
func (s *Scheduler) Submit(key string, priority int, fn Job) *Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.inflight[key]; ok {
		// Joining an already-admitted job adds no new work, so it stays
		// legal while draining.
		t.waiters++
		s.met.dedups.Inc()
		return t
	}
	s.seq++
	t := &Ticket{
		s: s, key: key, priority: priority, seq: s.seq,
		fn: fn, index: -1, waiters: 1,
		done: make(chan struct{}),
	}
	if s.closed {
		s.finishLocked(t, context.Canceled, outcomeCanceled)
		return t
	}
	if s.draining {
		s.finishLocked(t, ErrDraining, outcomeRejected)
		return t
	}
	if s.cfg.MaxQueue > 0 && s.queue.Len() >= s.cfg.MaxQueue {
		// Depth cap with priority-aware rejection: a backlog this deep is
		// an overload signal, so shed the least valuable work — the
		// lowest-priority (and among equals, newest) queued job if the
		// arrival outranks it, otherwise the arrival itself.
		vi := -1
		for i, q := range s.queue {
			if vi < 0 || q.priority < s.queue[vi].priority ||
				(q.priority == s.queue[vi].priority && q.seq > s.queue[vi].seq) {
				vi = i
			}
		}
		if vi >= 0 && s.queue[vi].priority < priority {
			victim := s.queue[vi]
			heap.Remove(&s.queue, vi)
			s.finishLocked(victim, ErrQueueFull, outcomeRejected)
		} else {
			s.finishLocked(t, ErrQueueFull, outcomeRejected)
			return t
		}
	}
	s.inflight[key] = t
	heap.Push(&s.queue, t)
	s.met.queueDepth.Set(int64(s.queue.Len()))
	s.cond.Signal()
	return t
}

// finishLocked completes a ticket; the caller holds s.mu.
func (s *Scheduler) finishLocked(t *Ticket, err error, outcome string) {
	if t.state == stateDone {
		return
	}
	t.state = stateDone
	t.err = err
	// Abandoned running jobs were already evicted from the index, and the
	// key may since have been reused by a fresh submission — only remove
	// the entry if it is still this ticket's.
	if cur, ok := s.inflight[t.key]; ok && cur == t {
		delete(s.inflight, t.key)
	}
	s.met.jobs.WithLabelValues(outcome).Inc()
	close(t.done)
	if len(s.inflight) == 0 {
		// Wake any Drain waiting for the last job. Workers woken
		// spuriously re-check their queue condition and sleep again.
		s.cond.Broadcast()
	}
}

// worker pops and runs jobs until Close.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed && s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		t := heap.Pop(&s.queue).(*Ticket)
		s.met.queueDepth.Set(int64(s.queue.Len()))
		if s.closed {
			s.finishLocked(t, context.Canceled, outcomeCanceled)
			s.mu.Unlock()
			continue
		}
		jobCtx, jobCancel := context.WithCancel(s.ctx)
		t.state = stateRunning
		t.cancel = jobCancel
		s.mu.Unlock()

		s.met.activeWorkers.Inc()
		stop := s.met.jobSeconds.Time()
		err := t.fn(jobCtx)
		stop()
		s.met.activeWorkers.Dec()

		// Classify before releasing jobCtx: jobCancel below cancels it
		// unconditionally, which must not masquerade as an abort.
		outcome := outcomeOK
		switch {
		case err == nil:
		case jobCtx.Err() != nil:
			outcome = outcomeCanceled
		default:
			outcome = outcomeError
		}
		jobCancel()
		s.mu.Lock()
		s.finishLocked(t, err, outcome)
		s.mu.Unlock()
	}
}

// AcquireSource claims a transfer slot against one source endpoint,
// blocking while PerSource jobs already hold one. It is called by the job
// body once the source is known (replica selection happens inside the
// job), so the cap composes with any queueing discipline above it. The
// returned release must be called exactly once.
func (s *Scheduler) AcquireSource(ctx context.Context, source string) (release func(), err error) {
	if s.cfg.PerSource <= 0 {
		s.met.inflight.WithLabelValues(source).Inc()
		var once sync.Once
		return func() {
			once.Do(func() { s.met.inflight.WithLabelValues(source).Dec() })
		}, nil
	}
	s.srcMu.Lock()
	sem, ok := s.srcs[source]
	if !ok {
		// Slots live for the scheduler's lifetime; the source population
		// is the set of peer sites, which is small and stable.
		sem = make(chan struct{}, s.cfg.PerSource)
		s.srcs[source] = sem
	}
	s.srcMu.Unlock()
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ctx.Done():
		return nil, s.ctx.Err()
	}
	s.met.inflight.WithLabelValues(source).Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.met.inflight.WithLabelValues(source).Dec()
			<-sem
		})
	}, nil
}

// Holds reports whether a job under key is queued or running: the
// in-flight index Submit coalesces on. A running job that every waiter
// abandoned is no longer held, since its key is free for a fresh job.
func (s *Scheduler) Holds(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.inflight[key]
	return ok
}

// Draining reports whether Drain has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain moves the scheduler into shutdown admission control: new
// submissions fail immediately with ErrDraining while queued and running
// jobs are allowed to finish. It returns when the last admitted job
// completes, or when ctx expires — in which case it reports the dedup
// keys of the jobs it abandoned (still queued or mid-transfer) alongside
// ctx's error, so the caller can persist them as unfinished work. Drain
// does not stop the workers or cancel anything; follow with Close.
func (s *Scheduler) Drain(ctx context.Context) (abandoned []string, err error) {
	s.mu.Lock()
	s.draining = true
	if len(s.inflight) == 0 {
		s.mu.Unlock()
		return nil, nil
	}
	s.mu.Unlock()

	done := make(chan struct{})
	abort := false // guarded by s.mu
	go func() {
		defer close(done)
		s.mu.Lock()
		defer s.mu.Unlock()
		for len(s.inflight) > 0 && !abort {
			s.cond.Wait()
		}
	}()
	select {
	case <-done:
		return nil, nil
	case <-ctx.Done():
		s.mu.Lock()
		abort = true
		for k := range s.inflight {
			abandoned = append(abandoned, k)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		<-done
		if len(abandoned) == 0 {
			// The last job finished in the race between completion and
			// ctx expiry: that is a clean drain.
			return nil, nil
		}
		sort.Strings(abandoned)
		return abandoned, ctx.Err()
	}
}

// Close cancels running jobs, fails queued ones with context.Canceled,
// and waits for the workers to drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	// Fail everything still queued; running jobs stop via s.ctx.
	for s.queue.Len() > 0 {
		t := heap.Pop(&s.queue).(*Ticket)
		s.finishLocked(t, context.Canceled, outcomeCanceled)
	}
	s.met.queueDepth.Set(0)
	s.cancel()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
