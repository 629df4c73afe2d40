package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricKind tags a registered collector for exposition and for type
// checking on get-or-register lookups.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeVec
	kindHistogramVec
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterVec:
		return "counter"
	case kindGauge, kindGaugeVec:
		return "gauge"
	default:
		return "histogram"
	}
}

type entry struct {
	name      string
	help      string
	kind      metricKind
	collector interface{}
}

// Registry holds a set of named collectors and renders them as
// Prometheus-style text. Constructors are get-or-register: asking twice
// for the same name returns the same collector, so independent components
// can share a family without coordination. Requesting an existing name
// with a different kind panics (a programming error, like a duplicate
// registration in Prometheus itself).
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is no component's fallback. Only testbed.NewGrid's catalog
// records into it, because bench/run.go reads that catalog server's
// request count here.
var Default = NewRegistry()

func (r *Registry) getOrRegister(name, help string, kind metricKind, mk func() interface{}) interface{} {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: %s already registered as %s", name, e.kind))
		}
		return e.collector
	}
	c := mk()
	r.entries[name] = &entry{name: name, help: help, kind: kind, collector: c}
	return c
}

// Counter returns the registered counter with this name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getOrRegister(name, help, kindCounter, func() interface{} { return &Counter{} }).(*Counter)
}

// Gauge returns the registered gauge with this name, creating it if
// needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getOrRegister(name, help, kindGauge, func() interface{} { return &Gauge{} }).(*Gauge)
}

// Histogram returns the registered histogram with this name, creating it
// with the given bucket upper bounds if needed (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.getOrRegister(name, help, kindHistogram, func() interface{} { return newHistogram(bounds) }).(*Histogram)
}

// CounterVec returns the registered labeled counter family, creating it
// if needed.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.getOrRegister(name, help, kindCounterVec, func() interface{} { return newCounterVec(labels) }).(*CounterVec)
}

// GaugeVec returns the registered labeled gauge family, creating it if
// needed.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return r.getOrRegister(name, help, kindGaugeVec, func() interface{} { return newGaugeVec(labels) }).(*GaugeVec)
}

// HistogramVec returns the registered labeled histogram family, creating
// it with the given bucket bounds if needed (DefBuckets when nil).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.getOrRegister(name, help, kindHistogramVec, func() interface{} { return newHistogramVec(labels, bounds) }).(*HistogramVec)
}

// --- exposition ------------------------------------------------------------

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatFloat renders a float the way Prometheus does (shortest
// round-trip representation, +Inf spelled out).
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// labelString renders {k1="v1",k2="v2"} for a child key, or "" when the
// vector has no labels.
func labelString(names []string, key string) string {
	if len(names) == 0 {
		return ""
	}
	values := strings.Split(key, labelSep)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", n, escapeLabel(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

// histogramLabelString renders {k1="v1",...,le="bound"}.
func histogramLabelString(names []string, key string, le float64) string {
	var b strings.Builder
	b.WriteByte('{')
	if len(names) > 0 {
		values := strings.Split(key, labelSep)
		for i, n := range names {
			fmt.Fprintf(&b, "%s=\"%s\",", n, escapeLabel(values[i]))
		}
	}
	fmt.Fprintf(&b, "le=\"%s\"}", formatFloat(le))
	return b.String()
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram, names []string, key string) error {
	bounds, counts := h.Snapshot()
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, histogramLabelString(names, key, b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

// WriteText renders every registered collector in the Prometheus text
// exposition format, sorted by metric name (and label key within a
// family) so output is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	for _, e := range entries {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, e.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
			return err
		}
		switch c := e.collector.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name, c.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name, c.Value()); err != nil {
				return err
			}
		case *Histogram:
			if err := writeHistogram(w, e.name, "", c, nil, ""); err != nil {
				return err
			}
		case *CounterVec:
			c.mu.RLock()
			keys := make([]string, 0, len(c.children))
			for k := range c.children {
				keys = append(keys, k)
			}
			children := make(map[string]*Counter, len(c.children))
			for k, v := range c.children {
				children[k] = v
			}
			c.mu.RUnlock()
			sort.Strings(keys)
			for _, k := range keys {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", e.name, labelString(c.labels, k), children[k].Value()); err != nil {
					return err
				}
			}
		case *GaugeVec:
			c.mu.RLock()
			keys := make([]string, 0, len(c.children))
			for k := range c.children {
				keys = append(keys, k)
			}
			children := make(map[string]*Gauge, len(c.children))
			for k, v := range c.children {
				children[k] = v
			}
			c.mu.RUnlock()
			sort.Strings(keys)
			for _, k := range keys {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", e.name, labelString(c.labels, k), children[k].Value()); err != nil {
					return err
				}
			}
		case *HistogramVec:
			c.mu.RLock()
			keys := make([]string, 0, len(c.children))
			for k := range c.children {
				keys = append(keys, k)
			}
			children := make(map[string]*Histogram, len(c.children))
			for k, v := range c.children {
				children[k] = v
			}
			c.mu.RUnlock()
			sort.Strings(keys)
			for _, k := range keys {
				if err := writeHistogram(w, e.name, labelString(c.labels, k), children[k], c.labels, k); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Text renders WriteText into a string.
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}
