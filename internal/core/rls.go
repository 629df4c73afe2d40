package core

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"gdmp/internal/obs"
	"gdmp/internal/replica"
)

// Replica location: a site finds an LFN's bytes in two places, the paper's
// two (§4.2). Its own local catalog answers first (read-your-writes: a
// just-published file is visible here at once); the central catalog's
// location table answers for every other site. A location the central
// catalog lost (a withdrawal race, a partial registration) heals when the
// holder's next scrub pass re-asserts it (scrubPass), so a miss is the
// location table's own answer. An LFN the central catalog does not know
// at all fails a pull at its Lookup, before either tier runs.

// rlsSiteMetrics instruments the site-side locate (gdmp_rls_locate_*).
type rlsSiteMetrics struct {
	locates   *obs.CounterVec // {source}: lrc/catalog/miss
	locateSec *obs.Histogram
}

func newRLSSiteMetrics(r *obs.Registry) *rlsSiteMetrics {
	const p = replica.RLSMetricsPrefix
	return &rlsSiteMetrics{
		locates: r.CounterVec(p+"_locate_total",
			"RLS locates by answering tier (lrc/catalog/miss).", "source"),
		locateSec: r.Histogram(p+"_locate_seconds",
			"RLS locate latency across all tiers.", nil),
	}
}

// remoteSources is the locator behind both Locate and the pull path: where
// other sites hold an LFN's bytes, from the central catalog's location
// table (tier "catalog"), minus this site's own endpoint. With no source
// the location table's error, if any, is returned. Every call counts its
// tier ("miss" for none) and its latency in the gdmp_rls_locate_* families.
func (s *Site) remoteSources(ctx context.Context, lfn string) (pfns []PFN, tier string, err error) {
	defer func(start time.Time) {
		s.noteLocate(cmp.Or(tier, "miss"), start)
	}(time.Now())
	locs, err := s.rc.locations(ctx, lfn)
	for _, p := range locs {
		if p.Addr != s.DataAddr() {
			pfns = append(pfns, p)
		}
	}
	if len(pfns) > 0 {
		return pfns, "catalog", nil
	}
	return nil, "", err
}

// noteLocate counts one locate answered by tier and observes its latency.
func (s *Site) noteLocate(tier string, start time.Time) {
	s.rlsMet.locates.WithLabelValues(tier).Inc()
	s.rlsMet.locateSec.ObserveDuration(time.Since(start))
}

// Locate resolves an LFN and reports which tier answered: "lrc" — this
// site's own local catalog; "catalog" — the central replica catalog's
// location table.
func (s *Site) Locate(ctx context.Context, lfn string) (pfns []PFN, source string, err error) {
	start := time.Now()
	if fi, ok := s.local.get(lfn); ok {
		s.noteLocate("lrc", start)
		return []PFN{{Addr: s.DataAddr(), Path: fi.Path}}, "lrc", nil
	}
	pfns, source, err = s.remoteSources(ctx, lfn)
	switch {
	case len(pfns) > 0:
		return pfns, source, nil
	case err != nil:
		return nil, "", fmt.Errorf("core: locate %s: %w", lfn, err)
	}
	return nil, "", fmt.Errorf("core: no known replica of %s", lfn)
}
