package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}

	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	bounds, counts := h.Snapshot()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v", bounds)
	}
	// v <= 1: {0.5, 1}; 1 < v <= 2: {1.5, 2}; 2 < v <= 5: {3}; rest: {100}.
	want := []int64{2, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got := h.Sum(); math.Abs(got-108) > 1e-9 {
		t.Fatalf("sum = %g, want 108", got)
	}
}

// TestConcurrentHammer pounds every collector kind from many goroutines;
// run under -race this is the package's data-race gate, and the final
// values check that no increments were lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_counter", "")
	g := r.Gauge("hammer_gauge", "")
	h := r.Histogram("hammer_hist", "", []float64{0.25, 0.5, 0.75})
	cv := r.CounterVec("hammer_vec", "", "worker")
	hv := r.HistogramVec("hammer_histvec", "", []float64{10, 20}, "worker")

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%4))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(i%100) / 100)
				cv.WithLabelValues(label).Inc()
				hv.WithLabelValues(label).Observe(float64(i % 30))
				// Interleave with exposition reads to catch read/write races.
				if i%1000 == 0 {
					_ = r.Text()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	_, counts := h.Snapshot()
	var sum int64
	for _, n := range counts {
		sum += n
	}
	if sum != h.Count() {
		t.Fatalf("bucket sum %d != count %d", sum, h.Count())
	}
	var vecTotal int64
	for _, l := range []string{"a", "b", "c", "d"} {
		vecTotal += cv.WithLabelValues(l).Value()
	}
	if vecTotal != workers*perWorker {
		t.Fatalf("vec total = %d, want %d", vecTotal, workers*perWorker)
	}
}

func TestRegistryGetOrRegister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "first")
	b := r.Counter("same", "second wins nothing")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("same", "")
}

func TestTransferRecorder(t *testing.T) {
	r := NewRegistry()
	rec := NewTransferRecorder(r, "test_xfer")
	done := rec.Start()
	done(TransferSample{
		Direction: "get", Bytes: 1 << 20, Streams: 4,
		Elapsed: time.Second,
	})
	rec.Restart()
	rec.Record(TransferSample{
		Direction: "put", Bytes: 100, Streams: 1,
		Elapsed: time.Millisecond, Err: errFake{},
	})
	rec.CRCFailure()

	if got := rec.transfers.WithLabelValues("get", "ok").Value(); got != 1 {
		t.Fatalf("get/ok = %d", got)
	}
	if got := rec.transfers.WithLabelValues("put", "error").Value(); got != 1 {
		t.Fatalf("put/error = %d", got)
	}
	if got := rec.bytes.WithLabelValues("get").Value(); got != 1<<20 {
		t.Fatalf("bytes get = %d", got)
	}
	if got := rec.restarts.Value(); got != 1 {
		t.Fatalf("restarts = %d", got)
	}
	if got := rec.crcFails.Value(); got != 1 {
		t.Fatalf("crc failures = %d", got)
	}
	if got := rec.inFlight.Value(); got != 0 {
		t.Fatalf("in flight = %d", got)
	}
	// A failed transfer must not contaminate the bandwidth histogram.
	if got := rec.bandwidth.Count(); got != 1 {
		t.Fatalf("bandwidth observations = %d", got)
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Fatalf("linear = %v", lin)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("exponential = %v", exp)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("inflight", "In-flight ops by source.", "source")
	v.WithLabelValues("cern.ch").Set(3)
	v.WithLabelValues("anl.gov").Inc()
	v.WithLabelValues("cern.ch").Dec()
	if got := v.WithLabelValues("cern.ch").Value(); got != 2 {
		t.Fatalf("cern.ch gauge = %d, want 2", got)
	}
	// Same registry name returns the same family; children render sorted.
	if r.GaugeVec("inflight", "", "source") != v {
		t.Fatal("get-or-register returned a new GaugeVec")
	}
	text := r.Text()
	want := "# TYPE inflight gauge\ninflight{source=\"anl.gov\"} 1\ninflight{source=\"cern.ch\"} 2\n"
	if !strings.Contains(text, want) {
		t.Fatalf("exposition:\n%s\nwant substring:\n%s", text, want)
	}
}
