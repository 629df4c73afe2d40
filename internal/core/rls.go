package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/obs"
	"gdmp/internal/replica"
	"gdmp/internal/rpc"
)

// RLS integration: every site's local catalog doubles as its Local
// Replica Catalog (LRC). A background loop condenses the LRC's LFN set
// into a bloom digest and pushes it to the Replica Location Index
// co-hosted with the replica catalog server (replica.RLI), where it
// lives as soft state until its TTL lapses. Lookups then have three
// tiers — own LRC (read-your-writes), the central catalog's location
// table, and RLI candidates confirmed by LRC point queries — so a
// replica whose central-catalog location was lost (withdrawal race,
// partial registration, foreign site) is still reachable.

// MethodLRCQuery point-queries a site's Local Replica Catalog for one
// LFN: the confirm step after an RLI digest match, turning a
// false-positive-possible hint into a definite answer.
const MethodLRCQuery = "gdmp.lrc"

// rlsSiteMetrics instruments the site-side RLS paths (gdmp_rls_*).
type rlsSiteMetrics struct {
	pushes    *obs.CounterVec // {outcome}: new/refresh/stale/error
	pushesOK  *obs.Counter
	refreshes *obs.Counter
	gen       *obs.Gauge
	lfns      *obs.Gauge
	locates   *obs.CounterVec // {source}: lrc/catalog/rli/miss
	rliWhich  *obs.Counter
	falsePos  *obs.Counter
	locateSec *obs.Histogram
}

func newRLSSiteMetrics(r *obs.Registry) *rlsSiteMetrics {
	const p = replica.RLSMetricsPrefix
	return &rlsSiteMetrics{
		pushes: r.CounterVec(p+"_digest_pushes_total",
			"Digest pushes to the RLI by outcome (new/refresh/stale/error).", "outcome"),
		pushesOK: r.Counter(p+"_digest_pushes_ok_total",
			"Digest pushes the RLI accepted."),
		refreshes: r.Counter(p+"_digest_refreshes_total",
			"Full digest rebuilds (generation bumps) because the LRC contents changed."),
		gen: r.Gauge(p+"_digest_generation",
			"Current digest generation of this site's LRC."),
		lfns: r.Gauge(p+"_digest_lfns",
			"LFNs condensed into the last pushed digest."),
		locates: r.CounterVec(p+"_locate_total",
			"RLS locates by answering tier (lrc/catalog/rli/miss).", "source"),
		rliWhich: r.Counter(p+"_rli_which_total",
			"Which-queries issued to the RLI tier."),
		falsePos: r.Counter(p+"_rli_false_positives_total",
			"RLI candidates whose LRC point query denied the LFN."),
		locateSec: r.Histogram(p+"_locate_seconds",
			"RLS locate latency across all tiers.", nil),
	}
}

func (s *Site) initRLS() {
	s.rlsMet = newRLSSiteMetrics(s.metrics)
}

// digestTTL is the soft-state lifetime pushed with each digest: the
// configured one, else 3x the push interval so one missed push never
// ages the site out of the index.
func (s *Site) digestTTL() time.Duration {
	if s.cfg.DigestTTL > 0 {
		return s.cfg.DigestTTL
	}
	if s.cfg.DigestInterval > 0 {
		return 3 * s.cfg.DigestInterval
	}
	return replica.DefaultRLITTL
}

// pushDigestLogged is the periodic digest push (see startLoops).
func (s *Site) pushDigestLogged() {
	if !s.admit.Allow("digest") {
		// Brownout: skip this round; the soft-state TTL absorbs a missed
		// heartbeat and the next tick retries.
		return
	}
	if _, err := s.PushDigest(s.ctx); err != nil && s.ctx.Err() == nil {
		s.logger.Printf("gdmp[%s]: digest push: %v", s.cfg.Name, err)
	}
}

// PushDigest condenses the local catalog into a bloom digest and pushes
// it to the RLI. The generation bumps only when the LFN set changed
// since the last push (a full-digest refresh, clearing bits left by
// deletions); an unchanged set re-pushes the current generation as a
// TTL-extending heartbeat. Returns the RLI's outcome. Exported so tests
// and operators can force a push outside the loop cadence.
func (s *Site) PushDigest(ctx context.Context) (outcome string, err error) {
	s.digestMu.Lock()
	defer s.digestMu.Unlock()

	files := s.local.list()
	lfns := make([]string, 0, len(files))
	for _, fi := range files {
		lfns = append(lfns, fi.LFN)
	}
	sort.Strings(lfns)
	h := fnv.New64a()
	for _, lfn := range lfns {
		h.Write([]byte(lfn))
		h.Write([]byte{0})
	}
	hash := h.Sum64()

	gen := s.digestGen.Load()
	if gen == 0 || hash != s.lastDigestHash {
		gen = s.digestGen.Add(1)
		s.lastDigestHash = hash
		s.rlsMet.refreshes.Inc()
	}

	fp := s.cfg.DigestFPRate
	if fp <= 0 {
		fp = DefaultDigestFPRate
	}
	b := replica.NewBloom(len(lfns), fp)
	for _, lfn := range lfns {
		b.Add(lfn)
	}

	outcome, idxGen, err := s.rc.PushDigest(ctx, s.cfg.Name, s.Addr(), gen, b, s.digestTTL())
	if err != nil {
		s.rlsMet.pushes.WithLabelValues("error").Inc()
		return "", err
	}
	s.rlsMet.pushes.WithLabelValues(outcome).Inc()
	if outcome == replica.PushStale && idxGen > gen {
		// The RLI holds a newer generation — this site restarted and its
		// counter started over. Adopt the indexed generation and force a
		// refresh, so the next push supersedes the stale entry instead of
		// being rejected until it ages out.
		s.digestGen.Store(idxGen)
		s.rlsMet.gen.Set(int64(idxGen))
		s.lastDigestHash = 0
		return outcome, nil
	}
	s.rlsMet.pushesOK.Inc()
	s.rlsMet.gen.Set(int64(gen))
	s.rlsMet.lfns.Set(int64(len(lfns)))
	return outcome, nil
}

// DigestGeneration reports the current digest generation (0 before the
// first push).
func (s *Site) DigestGeneration() uint64 { return s.digestGen.Load() }

// LRCAnswer is one site's reply to an LRC point query.
type LRCAnswer struct {
	Has      bool
	Path     string // site-relative replica path
	Size     int64
	CRC      string
	State    string
	DataAddr string // GridFTP endpoint serving the bytes
	// DigestGen is the responder's digest generation: how stale the RLI
	// hint that led here was.
	DigestGen uint64
}

// LRCQuery asks the site at the given control address whether its Local
// Replica Catalog holds the LFN.
func (s *Site) LRCQuery(ctx context.Context, addr, lfn string) (LRCAnswer, error) {
	var e rpc.Encoder
	e.String(lfn)
	d, err := s.call(ctx, addr, MethodLRCQuery, &e)
	if err != nil {
		return LRCAnswer{}, err
	}
	var ans LRCAnswer
	ans.Has = d.Bool()
	if ans.Has {
		ans.Path = d.String()
		ans.Size = d.Int64()
		ans.CRC = d.String()
		ans.State = d.String()
		ans.DataAddr = d.String()
	}
	ans.DigestGen = d.Uint64()
	return ans, d.Finish()
}

// registerRLSHandlers wires the LRC point-query verb into the Request
// Manager (called from registerHandlers).
func (s *Site) registerRLSHandlers() {
	s.gdmpSrv.Handle(MethodLRCQuery, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		lfn := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		fi, ok := s.local.get(lfn)
		resp.Bool(ok)
		if ok {
			resp.String(fi.Path)
			resp.Int64(fi.Size)
			resp.String(fi.CRC32)
			resp.String(string(fi.State))
			resp.String(s.DataAddr())
		}
		resp.Uint64(s.digestGen.Load())
		return nil
	})
}

// rliSources resolves an LFN through the RLI tier: ask which LRCs might
// hold it, confirm each candidate with an LRC point query (dropping
// false positives — they cost an extra query, never a wrong answer),
// and record the control address of each confirmed holder in the entry's
// attrs so the transfer path can request staging. The owning site itself
// is skipped; its files come from its LRC directly.
func (s *Site) rliSources(ctx context.Context, entry *replica.LogicalFile, lfn string) []PFN {
	s.rlsMet.rliWhich.Inc()
	cands, err := s.rc.Which(ctx, lfn)
	if err != nil {
		s.logger.Printf("gdmp[%s]: rli which %s: %v", s.cfg.Name, lfn, err)
		return nil
	}
	var out []PFN
	for _, c := range cands {
		if c.Name == s.cfg.Name || c.Addr == s.Addr() {
			continue
		}
		ans, err := s.LRCQuery(ctx, c.Addr, lfn)
		if err != nil {
			s.logger.Printf("gdmp[%s]: lrc query %s at %s: %v", s.cfg.Name, lfn, c.Addr, err)
			continue
		}
		if !ans.Has {
			// Bloom false positive (or the site dropped the file since its
			// digest): one wasted point query, no wrong answer.
			s.rlsMet.falsePos.Inc()
			continue
		}
		if entry != nil && entry.Attrs != nil {
			entry.Attrs[ctlAttrPrefix+ans.DataAddr] = c.Addr
		}
		out = append(out, PFN{Addr: ans.DataAddr, Path: ans.Path})
	}
	return out
}

// remoteSources is the locator behind both Locate and the pull path: where
// other sites hold an LFN's bytes. The central catalog's location table
// answers first (tier "catalog"), minus this site's own endpoint; when that
// is empty (withdrawal race, partial registration, foreign publisher) the
// RLI tier does ("rli", see rliSources). With no source at all the location
// table's error, if any, is returned.
func (s *Site) remoteSources(ctx context.Context, lfn string, entry *replica.LogicalFile) (pfns []PFN, tier string, err error) {
	locs, err := s.rc.locations(ctx, lfn)
	for _, p := range locs {
		if p.Addr != s.DataAddr() {
			pfns = append(pfns, p)
		}
	}
	if len(pfns) > 0 {
		return pfns, "catalog", nil
	}
	if pfns = s.rliSources(ctx, entry, lfn); len(pfns) > 0 {
		return pfns, "rli", nil
	}
	return nil, "", err
}

// Locate resolves an LFN RLS-style and reports which tier answered:
// "lrc" — this site's own Local Replica Catalog (the read-your-writes
// tier: a just-published file is visible here no matter how stale every
// digest is); "catalog" — the central replica catalog's location table;
// "rli" — index candidates confirmed by LRC point queries.
func (s *Site) Locate(ctx context.Context, lfn string) (pfns []PFN, source string, err error) {
	defer func(start time.Time) {
		s.rlsMet.locateSec.ObserveDuration(time.Since(start))
	}(time.Now())

	if fi, ok := s.local.get(lfn); ok {
		s.rlsMet.locates.WithLabelValues("lrc").Inc()
		return []PFN{{Addr: s.DataAddr(), Path: fi.Path}}, "lrc", nil
	}
	pfns, source, err = s.remoteSources(ctx, lfn, nil)
	if len(pfns) > 0 {
		s.rlsMet.locates.WithLabelValues(source).Inc()
		return pfns, source, nil
	}
	s.rlsMet.locates.WithLabelValues("miss").Inc()
	if err != nil {
		return nil, "", fmt.Errorf("core: locate %s: %w", lfn, err)
	}
	return nil, "", fmt.Errorf("core: no known replica of %s", lfn)
}
