package main

// `gdmp status` is a formatted view of a site's metrics: the gdmp.metrics
// exposition `gdmp stats` prints whole, read back into the few lines an
// operator scans first. The site's registry is the one status surface;
// this file only names the series it reads and lays them out.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/health"
	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

// printStatus asks a site for its name (gdmp.ping) and its metrics
// (gdmp.metrics) over one client and renders them.
func printStatus(ctx context.Context, w io.Writer, cl *rpc.Client) error {
	d, err := cl.CallContext(ctx, core.MethodPing, nil)
	if err != nil {
		return err
	}
	name := d.String()
	if err := d.Finish(); err != nil {
		return err
	}
	if d, err = cl.CallContext(ctx, core.MethodMetrics, nil); err != nil {
		return err
	}
	text := d.String()
	if err := d.Finish(); err != nil {
		return err
	}
	m, err := parseExposition(text)
	if err != nil {
		return err
	}
	renderStatus(w, name, m)
	return nil
}

// exposition is one parsed scrape of a site's metrics. read collects
// every family the status view asked for, so a test can check that each
// one is registered.
type exposition struct {
	*obs.Scrape
	read map[string]bool
}

func parseExposition(text string) (*exposition, error) {
	s, err := obs.ParseText(text)
	if err != nil {
		return nil, err
	}
	return &exposition{Scrape: s, read: map[string]bool{}}, nil
}

// sum adds the family's series whose labels include every given
// key, value pair (all of them when none are given). Every counter and
// gauge the view reads holds whole units.
func (m *exposition) sum(name string, kv ...string) int64 {
	m.read[name] = true
	var total int64
	for _, s := range m.Series[name] {
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			match = match && s.Labels[kv[i]] == kv[i+1]
		}
		if match {
			total += int64(s.Value)
		}
	}
	return total
}

// byLabel maps each value of one label of the family to its series' value.
func (m *exposition) byLabel(name, label string) map[string]int64 {
	m.read[name] = true
	out := map[string]int64{}
	for _, s := range m.Series[name] {
		out[s.Labels[label]] = int64(s.Value)
	}
	return out
}

// quantile estimates the q-quantile of an unlabeled histogram family from
// its cumulative _bucket series.
func (m *exposition) quantile(name string, q float64) float64 {
	m.read[name] = true
	buckets := m.Series[name+"_bucket"]
	bounds := make([]float64, 0, len(buckets))
	cum := map[float64]int64{}
	for _, s := range buckets {
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, le)
		cum[le] = int64(s.Value)
	}
	sort.Float64s(bounds)
	counts := make([]int64, len(bounds))
	var below int64
	for i, b := range bounds {
		counts[i] = cum[b] - below
		below = cum[b]
	}
	return obs.BucketQuantile(bounds, counts, q)
}

// renderStatus prints the status view of a site's metrics. Every family
// is read before any block decides whether to print, so read lists them
// all whatever the site's configuration.
func renderStatus(w io.Writer, site string, m *exposition) {
	localFiles := m.sum("gdmp_site_local_files")
	subscribers := m.sum("gdmp_site_subscribers")
	ok := m.sum("gdmp_site_transfers_total", "outcome", "ok")
	failed := m.sum("gdmp_site_transfers_total", "outcome", "error")
	replicated := m.sum("gdmp_site_transfer_bytes_total")
	pending := m.sum("gdmp_site_pending_queue_depth")

	restored := m.sum("gdmp_recovery_files_restored")
	requeuedPulls := m.sum("gdmp_recovery_pulls_requeued")
	requeuedNotices := m.sum("gdmp_recovery_notices_requeued")
	quarantined := m.sum("gdmp_recovery_quarantined")
	journalFailed := m.sum("gdmp_journal_failed")

	poolUsed := m.sum("gdmp_pool_occupancy_bytes")
	poolCap := m.sum("gdmp_pool_capacity_bytes")
	hits := m.sum("gdmp_pool_hits_total")
	misses := m.sum("gdmp_pool_misses_total")
	evictions := m.sum("gdmp_pool_evictions_total")

	sidecars := m.sum("gdmp_parity_sidecars_total")
	rebuilds := m.sum("gdmp_parity_rebuilds_total")
	fallbacks := m.sum("gdmp_parity_fallbacks_total")
	bytesLocal := m.sum("gdmp_repair_bytes_local_total")
	bytesRepulled := m.sum("gdmp_repair_bytes_repulled_total")

	lrcLocates := m.sum("gdmp_rls_locate_total", "source", "lrc")
	catalogLocates := m.sum("gdmp_rls_locate_total", "source", "catalog")
	missedLocates := m.sum("gdmp_rls_locate_total", "source", "miss")
	locateP99 := int64(m.quantile("gdmp_rls_locate_seconds", 0.99) * 1e6)

	breaker := m.byLabel("gdmp_health_state", "peer")
	consecFails := m.byLabel("gdmp_health_consecutive_failures", "peer")
	bandwidth := m.byLabel("gdmp_health_ewma_bandwidth_kbps", "peer")
	latency := m.byLabel("gdmp_health_ewma_latency_micros", "peer")
	since := m.byLabel("gdmp_health_last_transition_seconds", "peer")

	brownout := m.sum("gdmp_brownout_active") != 0
	loadMilli := m.sum("gdmp_brownout_load_milli")
	admitted := m.sum("gdmp_admission_admitted_total")
	// Every refusal but a caller's own cancellation.
	rejected := m.sum("gdmp_admission_rejected_total") - m.sum("gdmp_admission_rejected_total", "reason", "canceled")
	expired := m.sum("gdmp_admission_rejected_total", "reason", "expired")
	entered := m.sum("gdmp_brownout_entered_total")
	deferred := m.sum("gdmp_brownout_deferred_total")

	fmt.Fprintf(w, "site %s: %d local files, %d subscribers\n", site, localFiles, subscribers)
	fmt.Fprintf(w, "transfers: %d ok, %d failed, %d bytes replicated, %d pending\n",
		ok, failed, replicated, pending)
	if restored+requeuedPulls+quarantined+requeuedNotices > 0 {
		fmt.Fprintf(w, "last restart: %d files restored, %d pulls requeued, %d notices requeued, %d quarantined\n",
			restored, requeuedPulls, requeuedNotices, quarantined)
	}
	if m.Typed["gdmp_journal_failed"] {
		state := "ok"
		if journalFailed != 0 {
			state = "failed"
		}
		fmt.Fprintf(w, "journal: %s\n", state)
	}
	if poolCap > 0 {
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(w, "pool: %d/%d bytes, %.1f%% hit rate (%d hits, %d misses), %d evictions\n",
			poolUsed, poolCap, 100*rate, hits, misses, evictions)
	}
	if sidecars+rebuilds+fallbacks+bytesLocal+bytesRepulled > 0 {
		fmt.Fprintf(w, "parity: %d sidecars, %d local rebuilds (%d bytes), %d fallbacks, %d bytes re-pulled\n",
			sidecars, rebuilds, bytesLocal, fallbacks, bytesRepulled)
	}
	if m.sum("gdmp_rls_locate_total") > 0 {
		fmt.Fprintf(w, "locate: %d lrc, %d catalog, %d miss, p99 %dus\n",
			lrcLocates, catalogLocates, missedLocates, locateP99)
	}
	if len(breaker) > 0 {
		peers := make([]string, 0, len(breaker))
		for p := range breaker {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		fmt.Fprintln(w, "peer health:")
		for _, p := range peers {
			line := fmt.Sprintf("  %s: breaker %s", p, health.State(breaker[p]))
			if n := consecFails[p]; n > 0 {
				line += fmt.Sprintf(", %d consecutive failures", n)
			}
			if kbps := bandwidth[p]; kbps > 0 {
				line += fmt.Sprintf(", %.1f Mbps", float64(kbps)/1000)
			}
			if us := latency[p]; us > 0 {
				line += fmt.Sprintf(", rtt %dus", us)
			}
			if sec := since[p]; sec > 0 {
				line += ", since " + time.Unix(sec, 0).Format(time.RFC3339)
			}
			fmt.Fprintln(w, line)
		}
	}
	if admitted+rejected > 0 || brownout {
		mode := "normal"
		if brownout {
			mode = "brownout"
		}
		fmt.Fprintf(w, "admission: %s (load %.1f%%), %d admitted, %d rejected (%d expired)\n",
			mode, float64(loadMilli)/10, admitted, rejected, expired)
		if entered > 0 {
			fmt.Fprintf(w, "brownout: entered %d times, %d background work units deferred\n", entered, deferred)
		}
	}
}
