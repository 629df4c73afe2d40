package replica

import (
	"sort"
	"sync"
	"time"

	"gdmp/internal/obs"
)

// RLI is the Replica Location Index tier of the RLS split: it holds one
// soft-state entry per site, each a bloom-filter digest of that site's
// Local Replica Catalog, and answers "which LRCs might hold LFN X" with
// false-positive-only semantics. Entries expire after a TTL unless the
// site pushes a fresh digest, so a dead site silently ages out — the
// classic soft-state design of the EU DataGrid RLS.
type RLI struct {
	mu      sync.Mutex
	ttl     time.Duration
	entries map[string]*rliEntry
	now     func() time.Time // injectable clock for TTL tests
	met     *rliMetrics
}

type rliEntry struct {
	addr    string // site control address, returned to queriers
	gen     uint64 // digest generation; stale pushes are rejected
	count   uint64 // LFNs in the digest, for status display
	filter  *Bloom
	expires time.Time
}

// DefaultRLITTL is the soft-state lifetime of a pushed digest. Sites
// push every DigestInterval (default 1/3 of this), so one missed push
// does not evict an entry.
const DefaultRLITTL = 5 * time.Minute

// Digest-push outcomes, also the `outcome` label on the push counter.
const (
	PushNew     = "new"     // first digest from this site
	PushRefresh = "refresh" // newer (or re-pushed current) generation
	PushStale   = "stale"   // older generation than already indexed
)

// NewRLI creates an empty index with the given soft-state TTL
// (DefaultRLITTL when zero) recording into r (private when nil).
func NewRLI(ttl time.Duration, r *obs.Registry) *RLI {
	if ttl <= 0 {
		ttl = DefaultRLITTL
	}
	return &RLI{
		ttl:     ttl,
		entries: make(map[string]*rliEntry),
		now:     time.Now,
		met:     newRLIMetrics(r),
	}
}

// Update applies one digest push from a site. A push whose generation is
// older than the indexed one is rejected as stale (out-of-order delivery
// after a retry, or a restarted site whose generation counter reset);
// pushing the current generation again is a heartbeat that extends the
// TTL; a newer generation replaces the whole filter — the full-digest
// refresh that clears any bits left by since-deleted LFNs. ttl overrides
// the index default when positive (capped at it). The returned generation
// is the one now indexed for the site — on a stale rejection that is the
// NEWER indexed generation, which the pusher adopts so its next push
// supersedes it instead of being rejected until the entry ages out.
func (x *RLI) Update(site, addr string, gen uint64, filter *Bloom, ttl time.Duration) (string, uint64) {
	if ttl <= 0 || ttl > x.ttl {
		ttl = x.ttl
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	now := x.now()
	x.expireLocked(now)
	outcome := PushNew
	if e, ok := x.entries[site]; ok {
		if gen < e.gen {
			x.met.pushes.WithLabelValues(PushStale).Inc()
			return PushStale, e.gen
		}
		outcome = PushRefresh
	}
	x.entries[site] = &rliEntry{
		addr:    addr,
		gen:     gen,
		count:   filter.Count(),
		filter:  filter,
		expires: now.Add(ttl),
	}
	x.met.pushes.WithLabelValues(outcome).Inc()
	x.met.sites.Set(int64(len(x.entries)))
	return outcome, gen
}

// Site is one RLI answer: a site whose digest matched, with the address
// to point-query its LRC and the digest generation that matched (so
// callers can spot how stale the hint was).
type Site struct {
	Name string
	Addr string
	Gen  uint64
}

// MightHold returns the sites whose digests test positive for the LFN,
// sorted by name. False positives are possible — the caller must confirm
// with an LRC point query — but a site whose digest was current when it
// held the file is never omitted.
func (x *RLI) MightHold(lfn string) []Site {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.expireLocked(x.now())
	x.met.queries.Inc()
	var out []Site
	for name, e := range x.entries {
		if e.filter.Test(lfn) {
			out = append(out, Site{Name: name, Addr: e.addr, Gen: e.gen})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	x.met.candidates.Add(int64(len(out)))
	return out
}

// SiteStatus describes one indexed site for status display.
type SiteStatus struct {
	Name      string
	Addr      string
	Gen       uint64
	Count     uint64
	ExpiresIn time.Duration
}

// Sites lists the live index entries, sorted by name.
func (x *RLI) Sites() []SiteStatus {
	x.mu.Lock()
	defer x.mu.Unlock()
	now := x.now()
	x.expireLocked(now)
	out := make([]SiteStatus, 0, len(x.entries))
	for name, e := range x.entries {
		out = append(out, SiteStatus{
			Name:      name,
			Addr:      e.addr,
			Gen:       e.gen,
			Count:     e.count,
			ExpiresIn: e.expires.Sub(now),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// expireLocked drops entries past their TTL. Called with mu held.
func (x *RLI) expireLocked(now time.Time) {
	for name, e := range x.entries {
		if now.After(e.expires) {
			delete(x.entries, name)
			x.met.expirations.Inc()
		}
	}
	x.met.sites.Set(int64(len(x.entries)))
}

// SetClock replaces the TTL clock (test hook).
func (x *RLI) SetClock(now func() time.Time) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.now = now
}

// rliMetrics instruments the index tier.
type rliMetrics struct {
	pushes      *obs.CounterVec // {outcome}
	sites       *obs.Gauge
	expirations *obs.Counter
	queries     *obs.Counter
	candidates  *obs.Counter
}

func newRLIMetrics(r *obs.Registry) *rliMetrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	return &rliMetrics{
		pushes: r.CounterVec(RLSMetricsPrefix+"_rli_pushes_total",
			"Digest pushes received by the RLI by outcome (new/refresh/stale).", "outcome"),
		sites: r.Gauge(RLSMetricsPrefix+"_rli_sites",
			"Sites with a live (unexpired) digest in the RLI."),
		expirations: r.Counter(RLSMetricsPrefix+"_rli_expirations_total",
			"RLI digests dropped because their soft-state TTL lapsed."),
		queries: r.Counter(RLSMetricsPrefix+"_rli_queries_total",
			"MightHold queries answered by the RLI."),
		candidates: r.Counter(RLSMetricsPrefix+"_rli_candidates_total",
			"Candidate sites returned across all RLI queries."),
	}
}
