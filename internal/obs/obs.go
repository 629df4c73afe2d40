// Package obs is the repository's integrated instrumentation layer: a
// small, dependency-free metrics core in the spirit of GridFTP's
// "integrated instrumentation, for monitoring ongoing transfer
// performance" (paper Section 3.2) and of the per-transfer monitoring
// Allcock et al. describe for replica management at scale.
//
// The package provides four collector kinds — atomic counters, gauges,
// bounded-bucket histograms, and labeled vectors of either — grouped in a
// Registry that renders itself in the Prometheus text exposition format.
// Every hot path in the system (GridFTP transfers, replica catalog
// operations, Request Manager RPCs, site publish/notify) records into a
// Registry; daemons expose the dump over HTTP and RPC, and `gdmp stats`
// renders it for operators.
//
// Collectors are cheap enough to touch on every operation: counters and
// gauges are single atomic adds, histogram observation is one atomic add
// plus a bucket search over a small fixed slice. Vector children are
// cached behind an RWMutex read lock.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are general-purpose latency buckets in seconds, from 100µs
// to ~100s, suitable for both LAN RPCs and WAN transfers.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05,
	.1, .25, .5, 1, 2.5, 5, 10, 25, 50, 100,
}

// LinearBuckets returns count buckets starting at start, width apart.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count buckets starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram counts observations into bounded buckets. The bucket at index
// i counts observations v with v <= bounds[i] (and greater than any lower
// bound); one extra implicit +Inf bucket catches the rest. The sum of all
// bucket counts always equals Count — the invariant the property tests
// hammer on.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Time returns a function that, when called, observes the elapsed time
// since Time was called: `defer h.Time()()`.
func (h *Histogram) Time() func() {
	start := time.Now()
	return func() { h.ObserveDuration(time.Since(start)) }
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the bucket upper bounds and per-bucket (non-cumulative)
// counts, including the trailing +Inf bucket (bound math.Inf(1)).
func (h *Histogram) Snapshot() (bounds []float64, counts []int64) {
	bounds = append(bounds, h.bounds...)
	bounds = append(bounds, math.Inf(1))
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// --- labeled vectors -------------------------------------------------------

const labelSep = "\xff"

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Counter
}

func newCounterVec(labels []string) *CounterVec {
	return &CounterVec{labels: labels, children: make(map[string]*Counter)}
}

// WithLabelValues returns (creating if needed) the counter for the given
// label values, which must match the vector's label names in count.
func (v *CounterVec) WithLabelValues(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(v.labels)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; !ok {
		c = &Counter{}
		v.children[key] = c
	}
	return c
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Gauge
}

func newGaugeVec(labels []string) *GaugeVec {
	return &GaugeVec{labels: labels, children: make(map[string]*Gauge)}
}

// WithLabelValues returns (creating if needed) the gauge for the given
// label values, which must match the vector's label names in count.
func (v *GaugeVec) WithLabelValues(values ...string) *Gauge {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(v.labels)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	g, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.children[key]; !ok {
		g = &Gauge{}
		v.children[key] = g
	}
	return g
}

// HistogramVec is a family of histograms sharing bucket bounds,
// distinguished by label values.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	mu       sync.RWMutex
	children map[string]*Histogram
}

func newHistogramVec(labels []string, bounds []float64) *HistogramVec {
	return &HistogramVec{labels: labels, bounds: bounds, children: make(map[string]*Histogram)}
}

// WithLabelValues returns (creating if needed) the histogram for the given
// label values.
func (v *HistogramVec) WithLabelValues(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(v.labels)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	h, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[key]; !ok {
		h = newHistogram(v.bounds)
		v.children[key] = h
	}
	return h
}
