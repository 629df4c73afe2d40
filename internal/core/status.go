package core

import (
	"context"
	"sync"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/rpc"
)

// MethodStatus reports a site's transfer history and counters; registered
// alongside the other GDMP methods.
const MethodStatus = "gdmp.status"

// TransferRecord is one completed (or failed) replication, the site-level
// analogue of GridFTP's integrated instrumentation: the paper's production
// deployment lived and died by being able to see what moved where, how
// fast, and with how many restarts.
type TransferRecord struct {
	LFN      string
	Source   string // GridFTP endpoint the replica came from
	Bytes    int64
	Elapsed  time.Duration
	Attempts int
	RateMbps float64
	When     time.Time
	Failed   bool
	Error    string
}

// transferLog keeps a bounded history of replication activity.
type transferLog struct {
	mu      sync.Mutex
	records []TransferRecord
	limit   int

	ok     int
	failed int
	bytes  int64
}

func newTransferLog(limit int) *transferLog {
	if limit <= 0 {
		limit = 256
	}
	return &transferLog{limit: limit}
}

func (l *transferLog) add(r TransferRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Failed {
		l.failed++
	} else {
		l.ok++
		l.bytes += r.Bytes
	}
	l.records = append(l.records, r)
	if len(l.records) > l.limit {
		l.records = l.records[len(l.records)-l.limit:]
	}
}

func (l *transferLog) list() []TransferRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]TransferRecord(nil), l.records...)
}

// SiteStatus summarizes a site's replication activity.
type SiteStatus struct {
	Name             string
	LocalFiles       int
	Subscribers      int
	TransfersOK      int
	TransfersFailed  int
	BytesReplicated  int64
	PendingTransfers int

	// Restart-recovery summary (all zero for a site without a StateDir or
	// one that started fresh).
	RestoredFiles    int
	RequeuedPulls    int
	QuarantinedFiles int
	RequeuedNotices  int

	// Journal is the durability health: "" for a site without a StateDir,
	// "ok" while the journal accepts appends, "failed" once an
	// append/fsync failure has latched it read-only — the site keeps
	// serving but mutations no longer survive a crash.
	Journal string

	// Disk-pool cache summary (all zero for a site without an MSS).
	// Hit rate is PoolHits / (PoolHits + PoolMisses).
	PoolUsed      int64
	PoolCapacity  int64
	PoolHits      int64
	PoolMisses    int64
	PoolEvictions int64

	// Erasure-coded local repair summary (all zero with parity disabled).
	// The two byte counters are the degraded-mode split: damage healed
	// from local parity versus damage that had to cross the WAN again.
	ParitySidecars      int64
	ParityRebuilds      int64
	ParityFallbacks     int64
	RepairBytesLocal    int64
	RepairBytesRepulled int64

	// RLS summary: the site's digest-push soft state and RLI fallback
	// activity.
	DigestGen          int64 // current digest generation of this site's LRC
	DigestPushes       int64 // pushes the RLI accepted
	DigestLFNs         int64 // LFNs condensed into the last pushed digest
	RLIQueries         int64 // which-queries issued to the RLI tier
	RLIFalsePositives  int64 // candidates denied by the LRC confirm step
	RLSLocateP99Micros int64 // p99 RLS locate latency, microseconds

	// HealthPeers is the per-peer scoreboard: breaker state and EWMA link
	// quality for every peer this site has pulled from or dialed.
	HealthPeers []PeerHealthStatus

	// Overload-protection summary (all zero without admission control).
	// The load signal is reported in milli-units (0-1000) so it crosses
	// the wire as an integer.
	BrownoutActive    bool
	BrownoutLoadMilli int64
	AdmissionAdmitted int64
	AdmissionRejected int64 // every rejection, expiry, shed, and drain
	AdmissionExpired  int64
	AdmissionShed     int64
	BrownoutEntered   int64
	BrownoutDeferred  int64
}

// PeerHealthStatus is one scoreboard row in a site's status: a peer's
// circuit-breaker state and EWMA link quality as of the snapshot.
type PeerHealthStatus struct {
	Peer           string
	Breaker        string // "closed", "half_open", or "open"
	ConsecFails    int64
	BandwidthKbps  int64
	LatencyMicros  int64
	LastTransition time.Time // zero until the breaker first changes state
}

// TransferHistory returns the site's recent replication records.
func (s *Site) TransferHistory() []TransferRecord {
	return s.xferLog.list()
}

// Status returns the site's counters.
func (s *Site) Status() SiteStatus {
	s.xferLog.mu.Lock()
	ok, failed, bytes := s.xferLog.ok, s.xferLog.failed, s.xferLog.bytes
	s.xferLog.mu.Unlock()
	st := SiteStatus{
		Name:             s.cfg.Name,
		LocalFiles:       s.local.len(),
		Subscribers:      len(s.Subscribers()),
		TransfersOK:      ok,
		TransfersFailed:  failed,
		BytesReplicated:  bytes,
		PendingTransfers: len(s.Pending()),
		RestoredFiles:    s.recovery.FilesRestored,
		RequeuedPulls:    s.recovery.PullsRequeued,
		QuarantinedFiles: s.recovery.Quarantined,
		RequeuedNotices:  s.recovery.NoticesRequeued,
		Journal:          s.journalHealth(),
	}
	if s.storage != nil {
		ps := s.storage.Stats()
		st.PoolUsed = s.storage.Used()
		st.PoolCapacity = s.storage.Capacity()
		st.PoolHits = int64(ps.Hits)
		st.PoolMisses = int64(ps.Misses)
		st.PoolEvictions = int64(ps.Evictions)
	}
	if s.scrubMet != nil {
		st.ParitySidecars = s.scrubMet.ParitySidecars.Value()
		st.ParityRebuilds = s.scrubMet.ParityRebuilds.Value()
		st.ParityFallbacks = s.scrubMet.ParityFallbacks.Value()
		st.RepairBytesLocal = s.scrubMet.RepairBytesLocal.Value()
		st.RepairBytesRepulled = s.scrubMet.RepairBytesRepulled.Value()
	}
	if s.rlsMet != nil {
		st.DigestGen = int64(s.digestGen.Load())
		st.DigestPushes = s.rlsMet.pushesOK.Value()
		st.DigestLFNs = s.rlsMet.lfns.Value()
		st.RLIQueries = s.rlsMet.rliWhich.Value()
		st.RLIFalsePositives = s.rlsMet.falsePos.Value()
		st.RLSLocateP99Micros = s.LocateP99Micros()
	}
	if s.admit != nil {
		as := s.admit.Snap()
		st.BrownoutActive = as.BrownoutActive
		st.BrownoutLoadMilli = int64(as.Load * 1000)
		st.AdmissionAdmitted = as.Admitted
		st.AdmissionRejected = as.Rejected
		st.AdmissionExpired = as.Expired
		st.AdmissionShed = as.Shed
		st.BrownoutEntered = as.BrownoutEntered
		st.BrownoutDeferred = as.BrownoutDeferred
	}
	for _, ph := range s.health.Snapshot() {
		st.HealthPeers = append(st.HealthPeers, PeerHealthStatus{
			Peer:           ph.Peer,
			Breaker:        ph.State,
			ConsecFails:    ph.ConsecFails,
			BandwidthKbps:  ph.BandwidthKbps,
			LatencyMicros:  ph.LatencyMicros,
			LastTransition: ph.LastTransition,
		})
	}
	return st
}

// journalHealth maps the journal's latch state to the status string.
func (s *Site) journalHealth() string {
	switch {
	case s.persist.j == nil:
		return ""
	case s.persist.failed.Load():
		return "failed"
	}
	return "ok"
}

// RemoteStatus fetches another site's status over the Request Manager.
func (s *Site) RemoteStatus(remoteAddr string) (SiteStatus, error) {
	d, err := s.call(s.ctx, remoteAddr, MethodStatus, nil)
	if err != nil {
		return SiteStatus{}, err
	}
	return DecodeSiteStatus(d)
}

// DecodeSiteStatus reads one complete gdmp.status reply: the one decoder
// of the payload layout, shared by RemoteStatus and the gdmp CLI.
func DecodeSiteStatus(d *rpc.Decoder) (SiteStatus, error) {
	st := decodeSiteStatus(d)
	return st, d.Finish()
}

// encodeSiteStatus writes the status payload; field order is the wire
// layout decodeSiteStatus reads.
func encodeSiteStatus(e *rpc.Encoder, st SiteStatus) {
	e.String(st.Name)
	e.Uint64(uint64(st.LocalFiles))
	e.Uint64(uint64(st.Subscribers))
	e.Uint64(uint64(st.TransfersOK))
	e.Uint64(uint64(st.TransfersFailed))
	e.Int64(st.BytesReplicated)
	e.Uint64(uint64(st.PendingTransfers))
	e.Uint64(uint64(st.RestoredFiles))
	e.Uint64(uint64(st.RequeuedPulls))
	e.Uint64(uint64(st.QuarantinedFiles))
	e.Uint64(uint64(st.RequeuedNotices))
	e.String(st.Journal)
	e.Int64(st.PoolUsed)
	e.Int64(st.PoolCapacity)
	e.Int64(st.PoolHits)
	e.Int64(st.PoolMisses)
	e.Int64(st.PoolEvictions)
	e.Int64(st.ParitySidecars)
	e.Int64(st.ParityRebuilds)
	e.Int64(st.ParityFallbacks)
	e.Int64(st.RepairBytesLocal)
	e.Int64(st.RepairBytesRepulled)
	e.Int64(st.DigestGen)
	e.Int64(st.DigestPushes)
	e.Int64(st.DigestLFNs)
	e.Int64(st.RLIQueries)
	e.Int64(st.RLIFalsePositives)
	e.Int64(st.RLSLocateP99Micros)
	e.Uint64(uint64(len(st.HealthPeers)))
	for _, p := range st.HealthPeers {
		e.String(p.Peer)
		e.String(p.Breaker)
		e.Int64(p.ConsecFails)
		e.Int64(p.BandwidthKbps)
		e.Int64(p.LatencyMicros)
		// The zero time crosses the wire as 0, not its (negative)
		// UnixNano, so it round-trips to a zero value.
		if p.LastTransition.IsZero() {
			e.Int64(0)
		} else {
			e.Int64(p.LastTransition.UnixNano())
		}
	}
	if st.BrownoutActive {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
	e.Int64(st.BrownoutLoadMilli)
	e.Int64(st.AdmissionAdmitted)
	e.Int64(st.AdmissionRejected)
	e.Int64(st.AdmissionExpired)
	e.Int64(st.AdmissionShed)
	e.Int64(st.BrownoutEntered)
	e.Int64(st.BrownoutDeferred)
}

// decodeSiteStatus reads the status payload. A short payload leaves an
// error in d for the caller's Finish to return.
func decodeSiteStatus(d *rpc.Decoder) SiteStatus {
	st := SiteStatus{
		Name:                d.String(),
		LocalFiles:          int(d.Uint64()),
		Subscribers:         int(d.Uint64()),
		TransfersOK:         int(d.Uint64()),
		TransfersFailed:     int(d.Uint64()),
		BytesReplicated:     d.Int64(),
		PendingTransfers:    int(d.Uint64()),
		RestoredFiles:       int(d.Uint64()),
		RequeuedPulls:       int(d.Uint64()),
		QuarantinedFiles:    int(d.Uint64()),
		RequeuedNotices:     int(d.Uint64()),
		Journal:             d.String(),
		PoolUsed:            d.Int64(),
		PoolCapacity:        d.Int64(),
		PoolHits:            d.Int64(),
		PoolMisses:          d.Int64(),
		PoolEvictions:       d.Int64(),
		ParitySidecars:      d.Int64(),
		ParityRebuilds:      d.Int64(),
		ParityFallbacks:     d.Int64(),
		RepairBytesLocal:    d.Int64(),
		RepairBytesRepulled: d.Int64(),
		DigestGen:           d.Int64(),
		DigestPushes:        d.Int64(),
		DigestLFNs:          d.Int64(),
		RLIQueries:          d.Int64(),
		RLIFalsePositives:   d.Int64(),
		RLSLocateP99Micros:  d.Int64(),
	}
	// Rows are appended only as they decode, so a claimed count with
	// nothing behind it allocates nothing.
	for n := d.Uint64(); n > 0 && d.Err() == nil; n-- {
		p := PeerHealthStatus{
			Peer:          d.String(),
			Breaker:       d.String(),
			ConsecFails:   d.Int64(),
			BandwidthKbps: d.Int64(),
			LatencyMicros: d.Int64(),
		}
		if ns := d.Int64(); ns != 0 {
			p.LastTransition = time.Unix(0, ns)
		}
		st.HealthPeers = append(st.HealthPeers, p)
	}
	st.BrownoutActive = d.Uint8() != 0
	st.BrownoutLoadMilli = d.Int64()
	st.AdmissionAdmitted = d.Int64()
	st.AdmissionRejected = d.Int64()
	st.AdmissionExpired = d.Int64()
	st.AdmissionShed = d.Int64()
	st.BrownoutEntered = d.Int64()
	st.BrownoutDeferred = d.Int64()
	return st
}

// registerStatusHandler wires MethodStatus into the Request Manager.
func (s *Site) registerStatusHandler() {
	s.gdmpSrv.Handle(MethodStatus, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		encodeSiteStatus(resp, s.Status())
		return nil
	})
}
