package obs

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestExpositionGolden pins the exact text exposition output for one of
// each collector kind, including label escaping, histogram cumulation,
// and deterministic ordering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_requests_total", "Total requests.").Add(3)
	r.Gauge("a_depth", "Queue depth.").Set(-2)
	h := r.Histogram("m_latency_seconds", "Latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	cv := r.CounterVec("m_ops_total", "Ops.", "op", "status")
	cv.WithLabelValues("lookup", "ok").Add(7)
	cv.WithLabelValues(`we"ird\`, "error").Inc()
	hv := r.HistogramVec("m_vec_seconds", "", []float64{1}, "op")
	hv.WithLabelValues("put").Observe(0.5)

	const want = `# HELP a_depth Queue depth.
# TYPE a_depth gauge
a_depth -2
# HELP m_latency_seconds Latency.
# TYPE m_latency_seconds histogram
m_latency_seconds_bucket{le="0.5"} 1
m_latency_seconds_bucket{le="1"} 2
m_latency_seconds_bucket{le="+Inf"} 3
m_latency_seconds_sum 3
m_latency_seconds_count 3
# HELP m_ops_total Ops.
# TYPE m_ops_total counter
m_ops_total{op="lookup",status="ok"} 7
m_ops_total{op="we\"ird\\",status="error"} 1
# TYPE m_vec_seconds histogram
m_vec_seconds_bucket{op="put",le="1"} 1
m_vec_seconds_bucket{op="put",le="+Inf"} 1
m_vec_seconds_sum{op="put"} 0.5
m_vec_seconds_count{op="put"} 1
# HELP z_requests_total Total requests.
# TYPE z_requests_total counter
z_requests_total 3
`
	got := r.Text()
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramSumInvariant is the property test of the issue: for any
// sequence of observations into any bucket layout, the per-bucket counts
// always sum to the observation count.
func TestHistogramSumInvariant(t *testing.T) {
	prop := func(rawBounds []float64, values []float64) bool {
		// Sanitize bounds: histograms reject nothing, but NaN bounds make
		// bucket search meaningless, so map them to finite values.
		bounds := make([]float64, 0, len(rawBounds))
		for _, b := range rawBounds {
			if b == b { // not NaN
				bounds = append(bounds, b)
			}
		}
		h := newHistogram(bounds)
		n := 0
		for _, v := range values {
			if v != v {
				continue
			}
			h.Observe(v)
			n++
		}
		_, counts := h.Snapshot()
		var sum int64
		for _, c := range counts {
			sum += c
		}
		return sum == int64(n) && h.Count() == int64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTimerObserves checks the Time helper lands one observation.
func TestTimerObserves(t *testing.T) {
	h := newHistogram(DefBuckets)
	stop := h.Time()
	time.Sleep(time.Millisecond)
	stop()
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

// TestExpositionParses sanity-checks that every line is either a comment
// or "name{labels} value" with no stray whitespace — a scrape-ability
// smoke test without importing a parser.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	NewTransferRecorder(r, "x").Record(TransferSample{
		Direction: "get", Bytes: 10, Streams: 2, Elapsed: time.Second,
	})
	for _, line := range strings.Split(strings.TrimSuffix(r.Text(), "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		fields := strings.Split(line, " ")
		if len(fields) != 2 {
			t.Fatalf("malformed line %q", line)
		}
	}
}

// TestParseTextReadsWriteText: ParseText reads back every series, label
// and help line WriteText writes, escapes included.
func TestParseTextReadsWriteText(t *testing.T) {
	r := NewRegistry()
	r.Gauge("a_depth", "Queue depth.").Set(-2)
	r.CounterVec("m_ops_total", "", "op", "status").WithLabelValues(`we"ird\`, "error").Add(7)
	r.Histogram("m_latency_seconds", "Latency.", []float64{0.5}).Observe(0.25)

	s, err := ParseText(r.Text())
	if err != nil {
		t.Fatal(err)
	}
	if s.Help["a_depth"] != "Queue depth." || !s.Typed["m_ops_total"] || s.Help["m_ops_total"] != "" {
		t.Fatalf("help %v, typed %v", s.Help, s.Typed)
	}
	if got := s.Series["a_depth"]; len(got) != 1 || got[0].Value != -2 || got[0].Labels != nil {
		t.Fatalf("a_depth = %+v", got)
	}
	ops := s.Series["m_ops_total"]
	if len(ops) != 1 || ops[0].Value != 7 || ops[0].Labels["op"] != `we"ird\` || ops[0].Labels["status"] != "error" {
		t.Fatalf("m_ops_total = %+v", ops)
	}
	if b := s.Series["m_latency_seconds_bucket"]; len(b) != 2 || b[1].Labels["le"] != "+Inf" || b[1].Value != 1 {
		t.Fatalf("buckets = %+v", b)
	}
	if _, err := ParseText("m_ops_total{op=\"x\" 1"); err == nil {
		t.Fatal("an unclosed label set parsed")
	}
}
