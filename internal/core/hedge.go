package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gdmp/internal/gridftp"
	"gdmp/internal/obs"
)

// This file is the fetch stage's stall watchdog (pull.go has the stages):
// a transfer whose byte stream stalls past the source's p99-derived
// deadline is hedged — a second replica is warmed up in the background and,
// if the first source stays wedged, takes over the CRC-verified .part
// prefix instead of restarting from zero.
//
// The stall clock starts when the source accepts the transfer (its 150
// reply): from then on bytes are due, so a source that opens its data
// streams and sends nothing is cut as surely as one that dies mid-stream.
// Before it the leg is setting up — the dial, the security handshake, the
// GridFTP session — and every one of those exchanges is bounded by the
// session's own timeout (ftpConnect's), not by a deadline learned from
// earlier legs' byte streams: a loaded host that is slow to shake hands is
// not a stalled source.

// HedgeMetricsPrefix namespaces the hedged-pull counters.
const HedgeMetricsPrefix = "gdmp_xfer_hedge"

// errStalled marks a pull leg whose byte stream went quiet past the stall
// deadline. It is deliberately a plain (retryable) error: the leg was
// canceled by our own watchdog, and surfacing the underlying
// context.Canceled would stop the outer failover loop dead.
var errStalled = errors.New("core: transfer stalled")

// errBreakerOpen marks a source refused by its circuit breaker. Retryable:
// the next attempt re-ranks and picks a different replica.
var errBreakerOpen = errors.New("core: source circuit breaker open")

type hedgeMetrics struct {
	started *obs.Counter
	wins    *obs.CounterVec
	wasted  *obs.Counter
}

func newHedgeMetrics(reg *obs.Registry) *hedgeMetrics {
	return &hedgeMetrics{
		started: reg.Counter(HedgeMetricsPrefix+"_started_total",
			"Hedged pull legs started after the active source stalled."),
		wins: reg.CounterVec(HedgeMetricsPrefix+"_wins_total",
			"Pulls that had a hedge in flight, by which leg delivered the file.", "winner"),
		wasted: reg.Counter(HedgeMetricsPrefix+"_wasted_bytes_total",
			"Bytes moved by losing legs that the winner could not reuse."),
	}
}

// hedgeDeadline is the stall deadline for a pull from addr: the
// scoreboard's p99-derived value once the peer has history, the configured
// cold-start default before that, 0 when hedging is disabled.
func (s *Site) hedgeDeadline(addr string) time.Duration {
	if s.cfg.HedgeDeadline < 0 {
		return 0
	}
	if d := s.health.StallDeadline(addr); d > 0 {
		return d
	}
	return s.cfg.HedgeDeadline
}

type legResult struct {
	stats gridftp.TransferStats
	err   error
}

// fetchHedged runs one fetch attempt with stall hedging. The primary leg
// runs under a watchdog armed with the source's stall deadline; if the
// byte stream goes quiet, a backup replica is readied (a reachability
// check) while the primary gets one grace window to recover.
// If it does not, the primary is canceled, waited out — there is never a
// second writer on the .part file — and the backup resumes the verified
// prefix cross-source.
func (p *pull) fetchHedged(ctx context.Context, primary PFN, backup *PFN, forced bool) error {
	s := p.s
	legCtx, cancelLeg := context.WithCancelCause(ctx)
	defer cancelLeg(nil)

	// The stall clock starts when the source accepts the transfer (zero
	// until then) and advances on every byte the transfer lands.
	var lastProgress atomic.Int64
	alive := func() { lastProgress.Store(time.Now().UnixNano()) }

	deadline := s.hedgeDeadline(primary.Addr)
	// The watchdog cancels a wedged leg with the stall as the cause, which
	// runLeg reports in place of the cancellation: the caller's retry policy
	// keeps going and the leg's record says why it ended.
	stall := fmt.Errorf("%w: %s moved no bytes for %v pulling %s",
		errStalled, primary.Addr, deadline, p.lfn)

	resCh := make(chan legResult, 1)
	go func() {
		stats, err := p.runLeg(legCtx, primary, forced, alive)
		resCh <- legResult{stats, err}
	}()

	var timer *time.Timer
	var timerC <-chan time.Time
	if deadline > 0 {
		timer = time.NewTimer(deadline)
		defer timer.Stop()
		timerC = timer.C
	}

	hedgeCtx, cancelHedge := context.WithCancel(ctx)
	defer cancelHedge()
	var prepCh chan error

	for {
		select {
		case res := <-resCh:
			if prepCh == nil {
				return res.err
			}
			cancelHedge()
			if res.err == nil {
				// The primary recovered inside the hedge's warm-up window:
				// it wins, the hedge is abandoned before moving data.
				s.hedgeMet.wins.WithLabelValues("primary").Inc()
				return nil
			}
			// The primary died with a hedge already warming up: wait for
			// the prep verdict and take over if the backup is reachable.
			if perr := <-prepCh; perr != nil {
				return errors.Join(res.err, perr)
			}
			return p.hedgeTakeover(ctx, *backup, res.stats, alive)
		case <-timerC:
			last := lastProgress.Load()
			if last == 0 {
				timer.Reset(deadline) // still setting up: not the watchdog's
				continue
			}
			idle := time.Since(time.Unix(0, last))
			if idle < deadline {
				timer.Reset(deadline - idle)
				continue
			}
			s.health.ObserveStall(primary.Addr)
			if backup == nil {
				// No second replica to race: cancel the wedged leg so the
				// outer failover loop retries instead of hanging on a
				// black-holed connection.
				cancelLeg(stall)
				timerC = nil
				continue
			}
			s.hedgeMet.started.Inc()
			b := *backup
			prepCh = make(chan error, 1)
			go func() { prepCh <- p.hedgePrep(hedgeCtx, b) }()
			timerC = nil
		case perr := <-prepCh:
			// The hedge is ready before the primary recovered: cancel the
			// stalled leg and wait for it to release the .part file.
			prepCh = nil
			cancelLeg(stall)
			res := <-resCh
			if res.err == nil {
				// It squeaked in during the cancel race after all.
				s.hedgeMet.wins.WithLabelValues("primary").Inc()
				return nil
			}
			if perr != nil {
				return errors.Join(res.err, perr)
			}
			return p.hedgeTakeover(ctx, *backup, res.stats, alive)
		case <-ctx.Done():
			cancelLeg(nil)
			<-resCh
			return ctx.Err()
		}
	}
}

// hedgePrep readies the hedge source during the stalled primary's grace
// window: a reachability check — a session that answers SIZE, which also
// stages a tape-resident file, closed again; a takeover dials its own —
// vouches for it.
func (p *pull) hedgePrep(ctx context.Context, backup PFN) error {
	cl, err := p.s.ftpConnect(backup)(ctx)
	if err != nil {
		return err
	}
	defer cl.Close()
	_, err = cl.Size(backup.Path)
	return err
}

// hedgeTakeover runs the backup leg after the primary has been canceled
// and drained. ReliableGetFile resumes the primary's CRC-verified .part
// prefix against the new source (re-verifying it via the source's range
// checksum on the takeover's session first), so on the happy path zero
// already-verified bytes cross the wire again. The wasted-bytes ledger
// charges whatever the loser moved that the winner could not reuse.
func (p *pull) hedgeTakeover(ctx context.Context, backup PFN, primaryStats gridftp.TransferStats, alive func()) error {
	s := p.s
	stats, err := p.runLeg(ctx, backup, false, alive)
	if err != nil {
		return err
	}
	s.hedgeMet.wins.WithLabelValues("hedge").Inc()
	wasted := primaryStats.Bytes - stats.ResumedBytes
	if stats.DiscardedBytes > wasted {
		// The prefix handshake failed and the staged bytes were thrown
		// away; charge the larger of the two views of the same loss.
		wasted = stats.DiscardedBytes
	}
	if wasted > 0 {
		s.hedgeMet.wasted.Add(wasted)
	}
	return nil
}
