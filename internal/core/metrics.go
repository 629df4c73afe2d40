package core

import (
	"context"
	"gdmp/internal/gsi"
	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

// MethodMetrics returns the site's metrics registry rendered in the
// Prometheus text exposition format; registered alongside the other GDMP
// methods so `gdmp stats` can scrape any site it can authenticate to.
const MethodMetrics = "gdmp.metrics"

// SiteMetricsPrefix prefixes every site-level metric.
const SiteMetricsPrefix = "gdmp_site"

// siteMetrics instruments the publish/subscribe/replicate cycle of
// Section 4: publication latency, notification fan-out, the pull-queue
// depth consumers drain, and replication outcomes.
type siteMetrics struct {
	publishes          *obs.CounterVec // {outcome}
	publishTime        *obs.Histogram
	notifySent         *obs.CounterVec // {outcome}; one increment per delivery attempt
	notifyRecv         *obs.Counter
	notifyRedeliveries *obs.Counter
	notifySkipped      *obs.Counter
	notifyQueueDepth   *obs.Gauge
	suspectSubscribers *obs.Gauge
	pendingDepth       *obs.Gauge
	subscribers        *obs.Gauge
	replications       *obs.CounterVec // {outcome}
	transfers          *obs.CounterVec // {outcome}; one per transfer leg run
	transferBytes      *obs.Counter
	stageRequests      *obs.CounterVec // {outcome}
}

func newSiteMetrics(r *obs.Registry) *siteMetrics {
	return &siteMetrics{
		publishes: r.CounterVec(SiteMetricsPrefix+"_publishes_total",
			"Files published to the Grid, by outcome.", "outcome"),
		publishTime: r.Histogram(SiteMetricsPrefix+"_publish_seconds",
			"Publish latency (checksum, catalog registration, notification).", nil),
		notifySent: r.CounterVec(SiteMetricsPrefix+"_notifications_total",
			"Publication notices sent to subscribers, by outcome.", "outcome"),
		notifyRecv: r.Counter(SiteMetricsPrefix+"_notifications_received_total",
			"Publication notices received from producers."),
		notifyRedeliveries: r.Counter(SiteMetricsPrefix+"_notify_redeliveries_total",
			"Notification deliveries that failed and were queued for retry."),
		notifySkipped: r.Counter(SiteMetricsPrefix+"_notify_skipped_total",
			"Notifications not queued because the subscriber was suspect."),
		notifyQueueDepth: r.Gauge(SiteMetricsPrefix+"_notify_queue_depth",
			"Publication notices queued for redelivery across all subscribers."),
		suspectSubscribers: r.Gauge(SiteMetricsPrefix+"_suspect_subscribers",
			"Subscribers past the consecutive-failure threshold, awaiting re-subscribe."),
		pendingDepth: r.Gauge(SiteMetricsPrefix+"_pending_queue_depth",
			"Notified-but-not-yet-replicated files awaiting a pull."),
		subscribers: r.Gauge(SiteMetricsPrefix+"_subscribers",
			"Consumer sites currently subscribed."),
		replications: r.CounterVec(SiteMetricsPrefix+"_replications_total",
			"Replication (Get) pipeline runs, by outcome.", "outcome"),
		transfers: r.CounterVec(SiteMetricsPrefix+"_transfers_total",
			"Transfer legs run against a source, by outcome; a pull that fails over runs several.", "outcome"),
		transferBytes: r.Counter(SiteMetricsPrefix+"_transfer_bytes_total",
			"Bytes replicated by transfer legs that succeeded."),
		stageRequests: r.CounterVec(SiteMetricsPrefix+"_stage_requests_total",
			"Staging requests served for remote consumers, by outcome.", "outcome"),
	}
}

func outcomeOf(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// Metrics returns the registry this site records into: Config.Metrics,
// or the private one NewSite made when that was nil.
func (s *Site) Metrics() *obs.Registry { return s.metrics }

// registerMetricsHandler wires MethodMetrics into the Request Manager.
func (s *Site) registerMetricsHandler() {
	s.gdmpSrv.Handle(MethodMetrics, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		resp.String(s.metrics.Text())
		return nil
	})
}
