package main

// metricSpec declares one metric: its name, unit, which direction is
// better, and (end-to-end only) the share of the parent's median by which
// it may worsen before -compare calls it a regression. BENCHMARK.json at
// the repository root repeats this table; bench_test.go keeps the two
// identical.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the metrics a user of the grid sees that the box this runs
// on repeats within a bound, measured with the bench's tracing off. Every
// workload reports both. What a user sees first, how fast an op is, is in
// opTimes below: on a shared box those move by 30-60 % with the
// neighbours for minutes at a time, more than the largest bound the
// declaration allows, and a bound that same-code runs break says nothing
// about a change (README, Repeatability).
var endToEnd = []metricSpec{
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics measured in the traced run only, without a
// bound: the speed of the workload's op, then the metrics of single layers
// (layer = package name under internal/).
var perLayer = []metricSpec{
	// The op end to end: user-visible, but not repeatable enough on a shared
	// box to carry a bound (see endToEnd).
	{"throughput_mbps", "MB/s", "higher", 0},
	{"ops_per_s", "1/s", "higher", 0},
	{"latency_p50_ms", "ms", "lower", 0},
	{"latency_p90_ms", "ms", "lower", 0},
	// Per-byte layers: should move throughput_mbps / latency_p50_ms on
	// bulk_pull and leave small_drain flat.
	{"gridftp.get_mbps", "MB/s", "higher", 0},
	{"gridftp.crc32file_mbps", "MB/s", "higher", 0},
	{"gridftp.wire_bytes_per_byte", "B/B", "lower", 0},
	{"parity.create_mbps", "MB/s", "higher", 0},
	{"parity.sidecar_write_ms", "ms", "lower", 0},
	{"process.alloc_bytes_per_byte", "B/B", "lower", 0},
	{"process.cpu_s_per_gb", "s/GB", "lower", 0},
	// Per-pull fixed-cost layers: should move ops_per_s / latency_p50_ms
	// on small_drain and leave bulk_pull flat.
	{"replica.rpcs_per_pull", "count", "lower", 0},
	{"replica.lookup_rtt_us", "us", "lower", 0},
	{"replica.locations_rtt_us", "us", "lower", 0},
	{"replica.add_replica_rtt_us", "us", "lower", 0},
	{"replica.set_attrs_rtt_us", "us", "lower", 0},
	{"rpc.call_rtt_us", "us", "lower", 0},
	{"rpc.dial_handshake_us", "us", "lower", 0},
	{"gsi.handshake_us", "us", "lower", 0},
	{"gridftp.session_setup_us", "us", "lower", 0},
	{"core.dials_per_pull", "count", "lower", 0},
	{"journal.appends_per_pull", "count", "lower", 0},
	{"journal.append_sync_us", "us", "lower", 0},
	{"xfer.submit_wait_us", "us", "lower", 0},
	{"admission.admit_us", "us", "lower", 0},
	{"process.allocs_per_op", "count", "lower", 0},
	{"core.get_p99_ms", "ms", "lower", 0},
	{"core.unattributed_ms", "ms", "lower", 0},
	// Write side: should move latency_p50_ms on publish_fanout.
	{"core.publish_ms", "ms", "lower", 0},
	{"replica.register_rtt_us", "us", "lower", 0},
	{"core.notify_to_landed_ms", "ms", "lower", 0},
	// Repair side: should move throughput_mbps on scrub_repair.
	{"scrub.blockcrc_mbps", "MB/s", "higher", 0},
	{"parity.rebuild_mbps", "MB/s", "higher", 0},
	// The harness itself.
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// opTimes are the first of perLayer: --compare lists them as not gated.
var opTimes = perLayer[:4]

// exactCounts are the per-layer metrics that are counts made by the
// program and must repeat exactly from run to run.
var exactCounts = []string{"replica.rpcs_per_pull", "journal.appends_per_pull", "core.dials_per_pull"}
