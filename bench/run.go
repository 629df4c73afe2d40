package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is one run of one workload.
type runConfig struct {
	def     *workload
	seed    int64
	seconds float64
	traced  bool
	scratch string // directory the run's scratch directory is made in
	reps    probeReps
	// traceOut, in a traced run, is where the spans are written.
	traceOut string
}

// counts are the counters read from outside the program around the replay.
type counts struct {
	catalogRPCs, journalAppends, dials, wireBytes int64
	mallocs, allocBytes                           uint64
	cpu                                           float64
}

func (e *env) readCounts() counts {
	var c counts
	// The catalog server is the only rpc.Server left on obs.Default: every
	// site records into its private registry.
	c.catalogRPCs = counterSum(obs.Default, rpc.ServerMetricsPrefix+"_requests_total")
	c.journalAppends = counterSum(e.cons[0].Metrics(), journal.MetricsPrefix+"_appends_total")
	c.dials = e.dials.dials.Load()
	c.wireBytes = e.dials.read.Load() + e.dials.written.Load()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.allocBytes = m.Mallocs, m.TotalAlloc
	c.cpu = cpuSeconds()
	return c
}

// subRuns is how many grids an untraced run builds, sets up and replays one
// after another, each with its share of the ops on its own generated
// files. Set-up time shifts from one grid to the next (RSA key generation,
// page-cache and heap pages the hypervisor has to fault in), so setup_s is
// the median set-up of one grid; peak_rss_mb is the process's high-water
// mark when the last replay ends.
const subRuns = 3

// runWorkload returns the workload's metrics: the end-to-end ones from
// subRuns untraced set-ups and replays, or the per-layer ones (plus the
// printed budget table) from one traced replay of all the ops.
func runWorkload(cfg runConfig) (*result, error) {
	ops := cfg.def.opsFor(cfg.seconds)
	res := &result{Metrics: make(map[string]metricValue)}
	if cfg.traced {
		values, err := runOnce(cfg, cfg.seed, ops, res)
		if err != nil {
			return nil, err
		}
		fill(res, perLayer, values)
	} else {
		series := make(map[string][]float64)
		for k := 0; k < subRuns; k++ {
			values, err := runOnce(cfg, cfg.seed+int64(k)<<32, max(ops/subRuns, minOps), res)
			if err != nil {
				return nil, err
			}
			for name, v := range values {
				series[name] = append(series[name], v)
			}
		}
		values := make(map[string]float64)
		for name, vs := range series {
			values[name] = median(vs)
		}
		values["peak_rss_mb"] = series["peak_rss_mb"][subRuns-1] // a high-water mark of the process
		fmt.Printf("\n# of %d set-ups and replays\n", subRuns)
		fill(res, endToEnd, values)
	}
	res.Correct = res.Failed == 0
	fmt.Printf("# failed_ratio %d/%d\n", res.Failed, res.Attempted)
	return res, nil
}

// runOnce builds one grid, sets the workload up on it, replays ops ops,
// checks the outputs and returns what it measured; attempted and failed
// ops (and checker violations) are added to res.
func runOnce(cfg runConfig, seed int64, nOps int, res *result) (map[string]float64, error) {
	def := cfg.def
	setupStart := time.Now()
	base, err := os.MkdirTemp(cfg.scratch, def.name+"-")
	if err != nil {
		return nil, err
	}
	e, err := newEnv(def, seed, nOps, base, cfg.traced)
	if err != nil {
		os.RemoveAll(base)
		return nil, err
	}
	defer e.close()
	if err := def.setup(e); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", def.name, err)
	}
	setup := time.Since(setupStart)

	// The first tenth of the ops is warm-up, replayed to completion before
	// the timed ops start: caches fill, the rpc capability probe and other
	// once-per-connection work happen, and the counters read around the
	// timed replay cover whole timed ops only.
	warm := e.ops / 10
	failed := 0
	for i, op := range e.replay("warmup", 0, warm) {
		if op.err != nil {
			failed++
			fmt.Printf("# FAILED warm-up op %d: %v\n", i, op.err)
		}
	}
	var before, after counts
	if cfg.traced {
		before = e.readCounts()
	}
	ops := e.replay("replay", warm, e.ops)
	if cfg.traced {
		after = e.readCounts()
	}
	rss := peakRSSMB() // before the checker and the probes add their own

	var lat []float64 // of the successful timed ops
	var boxRef []time.Duration
	for i, op := range ops {
		boxRef = append(boxRef, op.boxRef)
		if op.err != nil {
			failed++
			fmt.Printf("# FAILED op %d: %v\n", warm+i, op.err)
			continue
		}
		lat = append(lat, ms(op.end-op.start))
	}
	sort.Float64s(lat)
	p50, p90 := percentile(lat, 0.50), percentile(lat, 0.90)
	// Wall time of the timed replay, less the harness's untimed work inside
	// it (spread over the clients, who do it in parallel).
	var wall, untimed time.Duration
	var payload int64
	for _, op := range ops {
		wall = max(wall, op.end)
		untimed += op.untimed
		payload += op.bytes
	}
	wall -= untimed / time.Duration(def.clients)

	violations := e.checkReplicas()
	values := make(map[string]float64)
	if !cfg.traced {
		values["peak_rss_mb"] = rss
		values["setup_s"] = setup.Seconds()
	} else {
		var err error
		if values, err = e.layerMetrics(cfg, before, after, lat, float64(payload)); err != nil {
			return nil, err
		}
		values["throughput_mbps"] = float64(payload) / 1e6 / wall.Seconds()
		values["ops_per_s"] = float64(len(lat)) / wall.Seconds()
		values["latency_p50_ms"] = p50
		values["latency_p90_ms"] = p90
		for _, name := range exactCounts {
			if v := values[name]; v != math.Trunc(v) {
				violations = append(violations, fmt.Sprintf("%s = %v is not a whole number per op", name, v))
			}
		}
	}

	for _, v := range violations {
		fmt.Printf("# CHECK FAILED: %s\n", v)
	}
	res.Attempted += e.ops
	res.Failed += failed + len(violations)
	fmt.Printf("# %s: %d ops (%d warm-up, %d timed), %d client(s), %d B files, seed %d, closed loop: %.2f ops/s, %.2f MB/s, p50 %.3f ms, p90 %.3f ms, set-up %.2f s, %d failed, %d check violation(s); box reference %.0f us\n",
		def.name, e.ops, warm, len(ops), def.clients, def.fileSize, seed, float64(len(lat))/wall.Seconds(), float64(payload)/1e6/wall.Seconds(), p50, p90, setup.Seconds(), failed, len(violations), us(medianDuration(boxRef)))
	return values, nil
}

// layerMetrics is the traced run's half of runOnce: it runs the probes and
// turns them, the counter deltas around the timed replay and the replay's
// latencies into the per-layer metrics, printing the budget table and
// writing the trace on the way.
func (e *env) layerMetrics(cfg runConfig, before, after counts, lat []float64, payload float64) (map[string]float64, error) {
	def := e.def
	probed, err := e.probes(cfg.reps)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	values := make(map[string]float64)
	n := float64(len(lat)) // every timed op succeeded, or the run is incorrect anyway
	p50 := percentile(lat, 0.50)
	for name, d := range probed {
		switch {
		case strings.HasSuffix(name, "_mbps"):
			values[name] = float64(def.fileSize) / 1e6 / d.Seconds()
		case strings.HasSuffix(name, "_us"):
			values[name] = us(d)
		default:
			values[name] = ms(d)
		}
	}
	values["replica.rpcs_per_pull"] = float64(after.catalogRPCs-before.catalogRPCs) / n
	values["journal.appends_per_pull"] = float64(after.journalAppends-before.journalAppends) / n
	values["core.dials_per_pull"] = float64(after.dials-before.dials) / n
	values["gridftp.wire_bytes_per_byte"] = float64(after.wireBytes-before.wireBytes) / payload
	values["process.alloc_bytes_per_byte"] = float64(after.allocBytes-before.allocBytes) / payload
	values["process.cpu_s_per_gb"] = (after.cpu - before.cpu) / (payload / 1e9)
	values["process.allocs_per_op"] = float64(after.mallocs-before.mallocs) / n
	values["core.get_p99_ms"] = percentile(lat, 0.99)
	values["core.notify_to_landed_ms"] = p50 - values["core.publish_ms"]

	// The budget: what the probed layers account for on one op's
	// blocking path, and what is left to site.go's orchestration,
	// queueing and waiting.
	fmt.Printf("\n# budget of one %s op (traced run, p50 %.3f ms, %d timed ops)\n", def.name, p50, len(lat))
	fmt.Printf("# %-30s %8s %12s %10s %7s\n", "layer function (metric)", "calls/op", "median/call", "ms/op", "share")
	var attributed float64
	for _, row := range def.budget {
		if row.count != "" {
			row.calls = values[row.count]
		}
		total := row.calls * ms(probed[row.metric])
		note := ""
		if row.inside != "" {
			note = "  (inside " + row.inside + ", not summed)"
		} else {
			attributed += total
		}
		fmt.Printf("# %-30s %8.0f %9.3f ms %10.3f %6.1f%%%s\n", row.metric, row.calls, ms(probed[row.metric]), total, 100*total/p50, note)
	}
	values["core.unattributed_ms"] = p50 - attributed
	fmt.Printf("# %-30s %8s %12s %10.3f %6.1f%%\n", "sum of layers", "", "", attributed, 100*attributed/p50)
	fmt.Printf("# %-30s %8s %12s %10.3f %6.1f%%  (residual: p50 - sum)\n", "core.unattributed_ms", "", "", p50-attributed, 100*(p50-attributed)/p50)
	fmt.Printf("# %-30s %8s %12s %10.3f          (op span minus its Site.* child spans)\n", "bench harness self time", "", "", ms(medianDuration(e.tr.selfTimes("op"))))

	replaySpans := 0
	for _, s := range e.tr.spans {
		if s.Op >= 0 {
			replaySpans++
		}
	}
	values["bench.trace_overhead_pct"] = 100 * ms(spanCost()) * float64(replaySpans) / float64(e.ops) / p50
	if cfg.traceOut != "" {
		if err := e.tr.writeFile(cfg.traceOut); err != nil {
			return nil, err
		}
		fmt.Printf("# %d spans written to %s\n", e.tr.count(), cfg.traceOut)
	}
	return values, nil
}

// fill copies the declared metrics out of values, in declaration order,
// printing each with its unit.
func fill(res *result, specs []metricSpec, values map[string]float64) {
	for _, m := range specs {
		v := values[m.Name]
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-30s %14.4f %s\n", m.Name, v, m.Unit)
	}
}
