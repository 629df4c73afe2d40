package scrub

import "gdmp/internal/obs"

// Metric family prefixes, one per thing that fails on its own: a site can
// scrub cleanly while its anti-entropy peer is down, and repairs can back
// up while the scanner is idle.
const (
	ScrubMetricsPrefix       = "gdmp_scrub"
	AntiEntropyMetricsPrefix = "gdmp_antientropy"
	RepairMetricsPrefix      = "gdmp_repair"
	ParityMetricsPrefix      = "gdmp_parity"
)

// Diff kinds recorded in gdmp_antientropy_diff_total{kind}.
const (
	DiffMissing  = "missing"
	DiffStale    = "stale"
	DiffDangling = "dangling"
)

// Metrics bundles the self-healing collectors. One instance per site.
type Metrics struct {
	// Local scrubber.
	ScrubScanned     *obs.Counter
	ScrubBytes       *obs.Counter
	ScrubCorrupt     *obs.Counter
	ScrubMissing     *obs.Counter
	ScrubPasses      *obs.Counter
	ScrubPassSeconds *obs.Histogram
	QuarantineSwept  *obs.Counter
	QuarantineFiles  *obs.Gauge

	// Anti-entropy exchange.
	AERounds *obs.Counter
	AEPeers  *obs.CounterVec // {outcome}
	AEDiffs  *obs.CounterVec // {kind}

	// Repairs: one scheduler pull per withdrawn or missing replica.
	RepairAttempts *obs.Counter
	RepairSuccess  *obs.Counter
	RepairFailure  *obs.Counter
	RepairDepth    *obs.Gauge

	// Erasure-coded local repair. Local-vs-repulled bytes are the headline
	// numbers: they separate damage healed from the site's own parity
	// sidecars from damage that had to cross the WAN again.
	ParitySidecars      *obs.Counter
	ParityRebuilds      *obs.Counter
	ParityFallbacks     *obs.Counter
	RepairBytesLocal    *obs.Counter
	RepairBytesRepulled *obs.Counter
}

// NewMetrics registers the self-healing series in r (private if nil).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	return &Metrics{
		ScrubScanned: r.Counter(ScrubMetricsPrefix+"_files_scanned_total",
			"Catalog entries examined by the local scrubber."),
		ScrubBytes: r.Counter(ScrubMetricsPrefix+"_bytes_scanned_total",
			"Bytes re-read from disk for scrub checksumming."),
		ScrubCorrupt: r.Counter(ScrubMetricsPrefix+"_corrupt_total",
			"Replicas whose bytes failed their cataloged CRC (quarantined and withdrawn)."),
		ScrubMissing: r.Counter(ScrubMetricsPrefix+"_missing_total",
			"Cataloged replicas whose bytes were gone from disk (withdrawn)."),
		ScrubPasses: r.Counter(ScrubMetricsPrefix+"_passes_total",
			"Completed full scrub passes over the local catalog."),
		ScrubPassSeconds: r.Histogram(ScrubMetricsPrefix+"_pass_seconds",
			"Wall-clock duration of completed scrub passes.", nil),
		QuarantineSwept: r.Counter(ScrubMetricsPrefix+"_quarantine_swept_total",
			"Quarantined files removed by the age/count retention sweep."),
		QuarantineFiles: r.Gauge(ScrubMetricsPrefix+"_quarantine_files",
			"Files currently held in the quarantine directory."),
		AERounds: r.Counter(AntiEntropyMetricsPrefix+"_rounds_total",
			"Anti-entropy exchange rounds started."),
		AEPeers: r.CounterVec(AntiEntropyMetricsPrefix+"_peers_total",
			"Per-peer digest exchanges, by outcome.", "outcome"),
		AEDiffs: r.CounterVec(AntiEntropyMetricsPrefix+"_diff_total",
			"Digest differences found against peers, by kind (missing/stale/dangling).", "kind"),
		RepairAttempts: r.Counter(RepairMetricsPrefix+"_attempts_total",
			"Repairs started: re-replication pulls queued for withdrawn or missing replicas."),
		RepairSuccess: r.Counter(RepairMetricsPrefix+"_success_total",
			"Replicas successfully re-replicated and verified."),
		RepairFailure: r.Counter(RepairMetricsPrefix+"_failure_total",
			"Repair pulls that failed on every source (the next pass finds the file again)."),
		RepairDepth: r.Gauge(RepairMetricsPrefix+"_queue_depth",
			"Repair pulls outstanding (queued or running)."),
		ParitySidecars: r.Counter(ParityMetricsPrefix+"_sidecars_total",
			"Parity sidecars generated for published or landed replicas."),
		ParityRebuilds: r.Counter(ParityMetricsPrefix+"_rebuilds_total",
			"Corrupt replicas rebuilt in place from their parity sidecars."),
		ParityFallbacks: r.Counter(ParityMetricsPrefix+"_fallbacks_total",
			"Corrupt replicas whose damage exceeded the parity budget (or whose sidecar was unusable), forcing a WAN re-pull."),
		RepairBytesLocal: r.Counter(RepairMetricsPrefix+"_bytes_local_total",
			"Damaged bytes reconstructed locally from parity, with no network traffic."),
		RepairBytesRepulled: r.Counter(RepairMetricsPrefix+"_bytes_repulled_total",
			"Bytes re-fetched from remote replicas to replace irreparable local copies."),
	}
}
