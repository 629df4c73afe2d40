package replica

import (
	"strconv"
	"time"

	"gdmp/internal/obs"
)

// CatalogMetricsPrefix prefixes every replica catalog metric.
const CatalogMetricsPrefix = "gdmp_replica_catalog"

// RLSMetricsPrefix prefixes every Replica Location Service metric (the
// shard engine here, the site-side locate in internal/core).
const RLSMetricsPrefix = "gdmp_rls"

// Operation labels recorded by catalog instrumentation; one per public
// catalog operation, including the filter-query path whose timings the
// ops histogram captures under opQuery.
const (
	opRegister         = "register"
	opGenerate         = "generate"
	opLookup           = "lookup"
	opSetAttrs         = "set_attrs"
	opDelete           = "delete"
	opFiles            = "files"
	opQuery            = "query"
	opAddReplica       = "add_replica"
	opRemoveReplica    = "remove_replica"
	opLocations        = "locations"
	opCreateCollection = "create_collection"
	opDeleteCollection = "delete_collection"
	opAddToColl        = "add_to_collection"
	opRemoveFromColl   = "remove_from_collection"
	opListCollection   = "list_collection"
	opCollections      = "collections"
	opStats            = "stats"
)

// catalogMetrics counts catalog operations by outcome and times each one.
type catalogMetrics struct {
	ops     *obs.CounterVec   // {op, outcome}
	latency *obs.HistogramVec // {op}
}

func newCatalogMetrics(r *obs.Registry) *catalogMetrics {
	return &catalogMetrics{
		ops: r.CounterVec(CatalogMetricsPrefix+"_ops_total",
			"Replica catalog operations by operation and outcome.", "op", "outcome"),
		latency: r.HistogramVec(CatalogMetricsPrefix+"_op_seconds",
			"Replica catalog operation latency by operation.", nil, "op"),
	}
}

// record finishes one operation: use as
//
//	defer c.met.record(opLookup, time.Now(), &err)
//
// with a named error return (nil errp for operations that cannot fail).
// The deferred call reads *errp at function exit, after the body has
// assigned the result.
func (m *catalogMetrics) record(op string, start time.Time, errp *error) {
	outcome := "ok"
	if errp != nil && *errp != nil {
		outcome = "error"
	}
	m.ops.WithLabelValues(op, outcome).Inc()
	m.latency.WithLabelValues(op).ObserveDuration(time.Since(start))
}

// rlsCatalogMetrics instruments the shard engine: per-shard lookup and
// update counters (the counters are resolved once at construction so the
// hot path is a single atomic add, no label-map lookup) plus the
// lookup-latency histogram gdmp_rls_lookup_seconds.
type rlsCatalogMetrics struct {
	shardLookups []*obs.Counter
	shardUpdates []*obs.Counter
	lookupSec    *obs.Histogram
}

func newRLSCatalogMetrics(r *obs.Registry, shards int) *rlsCatalogMetrics {
	m := &rlsCatalogMetrics{
		shardLookups: make([]*obs.Counter, shards),
		shardUpdates: make([]*obs.Counter, shards),
		lookupSec: r.Histogram(RLSMetricsPrefix+"_lookup_seconds",
			"LRC lookup latency (ReadEntry/Locations) across all shards.", nil),
	}
	lv := r.CounterVec(RLSMetricsPrefix+"_shard_lookups_total",
		"LRC lookups by shard.", "shard")
	uv := r.CounterVec(RLSMetricsPrefix+"_shard_updates_total",
		"LRC mutations by shard.", "shard")
	for i := 0; i < shards; i++ {
		s := strconv.Itoa(i)
		m.shardLookups[i] = lv.WithLabelValues(s)
		m.shardUpdates[i] = uv.WithLabelValues(s)
	}
	return m
}

func (m *rlsCatalogMetrics) update(shard int) { m.shardUpdates[shard].Inc() }

func (m *rlsCatalogMetrics) lookup(start time.Time) {
	m.lookupSec.ObserveDuration(time.Since(start))
}
