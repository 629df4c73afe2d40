// Package scrub is the self-healing layer of a GDMP site: the machinery
// that turns "survive the fault" (retries, journaling, crash recovery)
// into "converge back to correct". The paper leans on GridFTP's
// end-to-end CRC to make each transfer safe (Section 4.3) but says
// nothing about what keeps a replica correct afterwards; the EU DataGrid
// follow-up work reports catalog/disk divergence and lost notifications
// as the dominant operational failure. Two passes find that divergence:
//
//   - a local scrubber that re-reads every cataloged replica at a
//     rate-limited pace (Limiter) and recomputes its CRC against the
//     cataloged value, so bit-rot is detected before a consumer fetches
//     corrupt bytes;
//   - an anti-entropy exchange in which peers periodically swap a compact
//     digest of (LFN, size, CRC) and diff it (Compare), so a consumer
//     discovers files it missed (lost notification, crash window) and a
//     producer discovers dangling catalog locations.
//
// What either pass withdraws or finds missing is repaired by the GDMP
// path the paper already has for a site that lost files: an ordinary
// scheduler pull, reconciled against the replica catalog.
//
// This package owns the generic machinery — pacing, checksumming, digest
// diffing, and the gdmp_scrub_* / gdmp_antientropy_* / gdmp_repair_* /
// gdmp_parity_* instrumentation. internal/core supplies what "verify",
// "quarantine" and "re-replicate" mean against a live catalog and
// scheduler, and runs the passes on their intervals.
package scrub

import "sort"

// Entry is one line of a site's integrity digest: just enough to decide
// whether two replicas of a logical file can be byte-identical. Digests
// are exchanged over the gdmp.digest RPC verb, so they stay compact —
// (LFN, size, CRC), not the full catalog record.
type Entry struct {
	LFN   string
	Size  int64
	CRC32 string
}

// Diff is the outcome of comparing a local digest against a peer's.
type Diff struct {
	// Missing are entries the peer holds that the local site lacks — the
	// signature of a lost notification or a crash window. They become
	// pull jobs.
	Missing []Entry

	// Stale are entries both sites hold whose size or CRC disagree. One
	// side has diverged from the published content; each side verifies
	// its own bytes against its own cataloged checksum to find out which.
	Stale []Entry

	// Extra are entries the local site holds that the peer lacks. They
	// are the probe set for dangling-location detection: if the replica
	// catalog still lists the peer as a location for one of these, that
	// location is withdrawn.
	Extra []Entry
}

// Compare diffs a local digest against a remote one. Both inputs may be
// in any order; the outputs are sorted by LFN so callers iterate
// deterministically.
func Compare(local, remote []Entry) Diff {
	loc := make(map[string]Entry, len(local))
	for _, e := range local {
		loc[e.LFN] = e
	}
	var d Diff
	seen := make(map[string]bool, len(remote))
	for _, re := range remote {
		seen[re.LFN] = true
		le, ok := loc[re.LFN]
		if !ok {
			d.Missing = append(d.Missing, re)
			continue
		}
		if le.Size != re.Size || le.CRC32 != re.CRC32 {
			d.Stale = append(d.Stale, re)
		}
	}
	for _, le := range local {
		if !seen[le.LFN] {
			d.Extra = append(d.Extra, le)
		}
	}
	sortEntries(d.Missing)
	sortEntries(d.Stale)
	sortEntries(d.Extra)
	return d
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].LFN < es[j].LFN })
}

// Report summarizes one local scrub pass.
type Report struct {
	// Scanned is how many catalog entries were examined this pass and
	// Bytes how many bytes were re-read for checksumming.
	Scanned int
	Bytes   int64

	// Corrupt counts replicas whose bytes failed their cataloged CRC
	// (quarantined and withdrawn); Missing counts entries whose bytes
	// were gone entirely (withdrawn).
	Corrupt int
	Missing int

	// Repairs is how many re-replications the pass queued.
	Repairs int

	// Rebuilt counts corrupt replicas repaired in place from their parity
	// sidecars (no quarantine, no WAN traffic); Fallbacks counts corrupt
	// replicas on a parity-enabled site whose damage exceeded the parity
	// budget — or whose sidecar was missing or corrupt — and therefore
	// took the quarantine + re-pull path. On a parity-enabled site,
	// Corrupt == Fallbacks.
	Rebuilt   int
	Fallbacks int

	// Resumed reports that the pass continued from a journaled cursor
	// (restart mid-scan) rather than starting at the beginning.
	Resumed bool
}

// ExchangeReport summarizes one anti-entropy round across all peers.
type ExchangeReport struct {
	// Peers is how many peers were contacted, Failed how many of those
	// exchanges errored (peer down, RPC fault).
	Peers  int
	Failed int

	// Missing, Stale, and Dangling count the digest differences found,
	// matching the gdmp_antientropy_diff_total{kind} series.
	Missing  int
	Stale    int
	Dangling int

	// Repairs is how many re-replications the round queued.
	Repairs int
}
