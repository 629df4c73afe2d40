package obs

import (
	"strings"
	"testing"
)

func TestPoolMetricsFamily(t *testing.T) {
	r := NewRegistry()
	pm := NewPoolMetrics(r)
	pm.Capacity.Set(1000)
	pm.Occupancy.Set(400)
	pm.Hits.Inc()
	pm.Misses.Inc()
	pm.Evictions.Inc()
	pm.Prefetches.Inc()
	pm.StageSeconds.Observe(0.01)

	// Registration is idempotent: a second family over the same registry
	// shares the same metrics.
	again := NewPoolMetrics(r)
	if again.Hits != pm.Hits || again.StageSeconds != pm.StageSeconds {
		t.Fatal("NewPoolMetrics did not reuse the registered family")
	}

	text := r.Text()
	for _, name := range []string{
		"gdmp_pool_occupancy_bytes", "gdmp_pool_reserved_bytes",
		"gdmp_pool_capacity_bytes", "gdmp_pool_hits_total",
		"gdmp_pool_misses_total", "gdmp_pool_evictions_total",
		"gdmp_pool_prefetches_total", "gdmp_pool_stage_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %s", name)
		}
	}

	// nil registry falls back to Default without panicking.
	if NewPoolMetrics(nil) == nil {
		t.Fatal("NewPoolMetrics(nil) returned nil")
	}
}

// quantile is BucketQuantile over a histogram's snapshot.
func quantile(h *Histogram, q float64) float64 {
	bounds, counts := h.Snapshot()
	return BucketQuantile(bounds, counts, q)
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test_seconds", "test", []float64{1, 2, 4})

	if got := quantile(h, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}

	// 10 observations in (0,1], 10 in (1,2].
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	if got := quantile(h, 0.25); got != 0.5 {
		t.Fatalf("p25 = %v, want 0.5 (midway through the first bucket)", got)
	}
	if got := quantile(h, 0.5); got != 1.0 {
		t.Fatalf("p50 = %v, want 1.0 (first bucket's upper bound)", got)
	}
	if got := quantile(h, 0.75); got != 1.5 {
		t.Fatalf("p75 = %v, want 1.5 (midway through the second bucket)", got)
	}
	// Out-of-range q clamps instead of extrapolating.
	if got := quantile(h, 2.0); got != quantile(h, 1.0) {
		t.Fatalf("q=2 gave %v, q=1 gave %v", got, quantile(h, 1.0))
	}
	if got := quantile(h, -1); got != quantile(h, 0) {
		t.Fatalf("q=-1 gave %v, q=0 gave %v", got, quantile(h, 0))
	}

	// An observation beyond every bound lands in +Inf; the estimate caps
	// at the highest finite bound rather than inventing a number.
	h2 := r.Histogram("q_inf_seconds", "test", []float64{1, 2, 4})
	h2.Observe(100)
	if got := quantile(h2, 0.99); got != 4 {
		t.Fatalf("p99 of +Inf-bucket-only histogram = %v, want 4", got)
	}
}
