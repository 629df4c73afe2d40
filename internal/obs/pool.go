// Disk-pool cache instrumentation: the gdmp_pool_* family every MSS-backed
// site exports, and the quantile estimator `gdmp status` and the cache-soak
// harness use to report p50/p99 stage latency from histogram buckets.
package obs

import "math"

// PoolStageBuckets are the stage-latency bounds, from half a millisecond
// (pool hit verified on disk) to ~16s (tape mount plus drain, or a slow
// WAN pull).
var PoolStageBuckets = ExponentialBuckets(0.0005, 2, 16)

// PoolMetrics is the gdmp_pool_* metric family for one site's disk pool:
// occupancy against capacity, hit/miss/eviction counts, and the latency
// of bringing bytes into the pool (tape stages and WAN pulls alike).
type PoolMetrics struct {
	Occupancy    *Gauge
	Reserved     *Gauge
	Capacity     *Gauge
	Hits         *Counter
	Misses       *Counter
	Evictions    *Counter
	Prefetches   *Counter
	StageSeconds *Histogram
}

// NewPoolMetrics registers (or finds) the pool family in a registry; nil
// makes a private one. Registration is idempotent, so two pools sharing
// one registry share one family.
func NewPoolMetrics(r *Registry) *PoolMetrics {
	if r == nil {
		r = NewRegistry()
	}
	return &PoolMetrics{
		Occupancy:    r.Gauge("gdmp_pool_occupancy_bytes", "Bytes of disk-pool capacity held by resident files."),
		Reserved:     r.Gauge("gdmp_pool_reserved_bytes", "Bytes of disk-pool capacity reserved for in-flight transfers."),
		Capacity:     r.Gauge("gdmp_pool_capacity_bytes", "Configured disk-pool capacity in bytes."),
		Hits:         r.Counter("gdmp_pool_hits_total", "Pool accesses satisfied by a resident replica."),
		Misses:       r.Counter("gdmp_pool_misses_total", "Pool accesses that had to stage from tape or pull over the WAN."),
		Evictions:    r.Counter("gdmp_pool_evictions_total", "Files evicted from the disk pool to make room."),
		Prefetches:   r.Counter("gdmp_pool_prefetches_total", "Collection members staged or pulled ahead of demand."),
		StageSeconds: r.Histogram("gdmp_pool_stage_seconds", "Latency of bringing a file into the disk pool (tape stage or WAN pull).", PoolStageBuckets),
	}
}

// BucketQuantile estimates the q-quantile (0 < q <= 1) of a histogram
// given as bucket upper bounds and per-bucket counts — Snapshot's shape,
// or the _bucket series of its exposition made non-cumulative —
// interpolating linearly inside the bucket the rank falls in. An estimate
// landing in the +Inf bucket reports the highest finite bound (the
// histogram cannot resolve beyond it), and an empty histogram reports 0.
func BucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum, lower := 0.0, 0.0
	for i, upper := range bounds {
		if math.IsInf(upper, 1) {
			break
		}
		c := float64(counts[i])
		if c > 0 && cum+c >= rank {
			return lower + (upper-lower)*(rank-cum)/c
		}
		cum += c
		lower = upper
	}
	return lower
}
