package obs

import "time"

// Transfer stream-count buckets: parallelism is bounded by GridFTP's
// MaxParallelism (32), so linear buckets cover the space exactly.
var streamBuckets = LinearBuckets(1, 1, 32)

// Bandwidth buckets in Mbps, from dial-up to multi-gigabit.
var bandwidthBuckets = ExponentialBuckets(0.1, 2, 18)

// TransferSample is the per-transfer record fed to a TransferRecorder:
// the same quantities GridFTP's integrated instrumentation reports per
// transfer (bytes moved, stream count, elapsed time). Restarts and
// stripes are counted by Restart and Striped.
type TransferSample struct {
	// Direction is "get" or "put" (or "3rd-party").
	Direction string

	// Bytes actually moved.
	Bytes int64

	// Streams is the parallel TCP stream count used.
	Streams int

	// Elapsed is the wall-clock transfer time.
	Elapsed time.Duration

	// Err records failure; a nil Err is a completed transfer.
	Err error
}

// RateMbps returns the sample's effective bandwidth in megabits/second.
func (s TransferSample) RateMbps() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / s.Elapsed.Seconds() / 1e6
}

// TransferRecorder aggregates per-transfer statistics into a registry:
// transfer and byte counts by direction and outcome, stream/stripe
// utilization, restart counts, CRC failures, and effective bandwidth.
// All names are prefixed with the owning subsystem, e.g.
// "gdmp_gridftp_client". A nil *TransferRecorder records nothing.
type TransferRecorder struct {
	transfers *CounterVec // {direction, outcome}
	bytes     *CounterVec // {direction}
	streams   *Histogram
	stripes   *Histogram
	restarts  *Counter
	crcFails  *Counter
	bandwidth *Histogram
	inFlight  *Gauge

	resumes        *Counter
	resumedBytes   *Counter
	resumeRejected *Counter
}

// NewTransferRecorder creates (or rebinds to) the transfer metric family
// with the given name prefix in a registry. Multiple recorders with the
// same prefix in the same registry share the underlying collectors.
func NewTransferRecorder(r *Registry, prefix string) *TransferRecorder {
	return &TransferRecorder{
		transfers: r.CounterVec(prefix+"_transfers_total",
			"Transfers by direction and outcome.", "direction", "outcome"),
		bytes: r.CounterVec(prefix+"_bytes_total",
			"Payload bytes moved by direction.", "direction"),
		streams: r.Histogram(prefix+"_streams",
			"Parallel TCP streams used per transfer.", streamBuckets),
		stripes: r.Histogram(prefix+"_stripes",
			"Source hosts per striped transfer.", streamBuckets),
		restarts: r.Counter(prefix+"_restarts_total",
			"Transfer attempts beyond the first (reliable-transfer restarts)."),
		crcFails: r.Counter(prefix+"_crc_failures_total",
			"End-to-end CRC-32 verification failures."),
		bandwidth: r.Histogram(prefix+"_bandwidth_mbps",
			"Effective per-transfer bandwidth in Mbps.", bandwidthBuckets),
		inFlight: r.Gauge(prefix+"_in_flight",
			"Transfers currently in progress."),
		resumes: r.Counter(prefix+"_resumes_total",
			"Downloads resumed from a verified partial file."),
		resumedBytes: r.Counter(prefix+"_resumed_bytes_total",
			"Bytes skipped by resuming downloads from a verified prefix."),
		resumeRejected: r.Counter(prefix+"_resume_rejected_total",
			"Partial files whose prefix checksum failed, forcing a full restart."),
	}
}

// Start marks a transfer as in flight and returns a function that records
// the finished sample (and decrements the in-flight gauge).
func (t *TransferRecorder) Start() func(TransferSample) {
	if t == nil {
		return func(TransferSample) {}
	}
	t.inFlight.Inc()
	return func(s TransferSample) {
		t.inFlight.Dec()
		t.Record(s)
	}
}

// Record aggregates one completed (or failed) transfer.
func (t *TransferRecorder) Record(s TransferSample) {
	outcome := "ok"
	if s.Err != nil {
		outcome = "error"
	}
	t.transfers.WithLabelValues(s.Direction, outcome).Inc()
	t.bytes.WithLabelValues(s.Direction).Add(s.Bytes)
	if s.Streams > 0 {
		t.streams.Observe(float64(s.Streams))
	}
	if s.Err == nil && s.Bytes > 0 && s.Elapsed > 0 {
		t.bandwidth.Observe(s.RateMbps())
	}
}

// Restart counts one reliable-transfer restart directly (used when the
// restart spans multiple client sessions).
func (t *TransferRecorder) Restart() {
	if t != nil {
		t.restarts.Inc()
	}
}

// Striped observes the source-host count of one striped transfer whose
// constituent range fetches are recorded individually.
func (t *TransferRecorder) Striped(hosts int) {
	if t != nil {
		t.stripes.Observe(float64(hosts))
	}
}

// CRCFailure counts one end-to-end checksum mismatch.
func (t *TransferRecorder) CRCFailure() {
	if t != nil {
		t.crcFails.Inc()
	}
}

// Resumed records one download resumed from a verified partial file of
// the given length (the bytes the resume did not have to move again).
func (t *TransferRecorder) Resumed(bytes int64) {
	if t != nil {
		t.resumes.Inc()
		t.resumedBytes.Add(bytes)
	}
}

// ResumeRejected counts a partial file whose prefix checksum did not
// match the source, forcing a restart from byte 0.
func (t *TransferRecorder) ResumeRejected() {
	if t != nil {
		t.resumeRejected.Inc()
	}
}
