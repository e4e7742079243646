//! Service observability over the shared `rulekit-obs` registry: lock-free
//! counters, per-shard queue-depth gauges, and log-linear latency
//! histograms, so the hot path never takes a lock to record.
//!
//! [`ServiceMetrics::report`] folds everything into the immutable
//! [`MetricsReport`] the experiments print; the registry
//! ([`ServiceMetrics::registry`]) renders the full Prometheus-style
//! exposition (queue depths, shed counts, latency quantiles) for scraping.

use rulekit_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// All counters the service maintains. Shared (`Arc`) between the service,
/// its workers, and whoever wants to read a [`MetricsReport`]. Every handle
/// lives in the registry, so one text exposition covers the whole tier.
pub struct ServiceMetrics {
    registry: Arc<Registry>,
    /// Requests admitted: queued for a shard worker, or started on the
    /// caller's thread by the blocking `classify`.
    pub submitted: Counter,
    /// Requests classified and answered.
    pub completed: Counter,
    /// Of `completed`: requests the blocking `classify` ran on its caller's
    /// thread, on a shard it found idle.
    pub ran_on_caller: Counter,
    /// Of `completed`: requests a shard worker ran from its queue.
    pub ran_on_worker: Counter,
    /// Requests rejected at admission (backpressure).
    pub overloaded: Counter,
    /// Admitted requests shed because their deadline passed while queued.
    pub deadline_shed: Counter,
    /// Admitted requests completed with [`ServeError::ShuttingDown`]
    /// because the service stopped before a worker classified them.
    ///
    /// [`ServeError::ShuttingDown`]: crate::response::ServeError::ShuttingDown
    pub shutdown_shed: Counter,
    /// Requests answered by the degraded (rules-only) path.
    pub degraded_served: Counter,
    /// Requests whose classification panicked (contained per-request).
    pub classifier_panics: Counter,
    /// Snapshot swaps published by the refresher.
    pub swaps: Counter,
    /// Sum of per-request rule candidates considered.
    pub candidates_total: Counter,
    /// High-water mark of total queued requests.
    pub max_queue_depth: Gauge,
    /// End-to-end latency (queue wait + classification) of completions,
    /// in nanoseconds.
    pub latency: Histogram,
    /// Snapshot build + publish latency (initial build, refresher swaps,
    /// and explicit `refresh_now` calls), in nanoseconds.
    pub snapshot_build_nanos: Histogram,
    /// Live queue depth per shard (`rulekit_serve_queue_depth{shard="i"}`).
    shard_depth: Vec<Gauge>,
}

impl ServiceMetrics {
    /// Metrics for a `shards`-wide service, in a registry of their own.
    pub fn new(shards: usize) -> Self {
        ServiceMetrics::with_registry(Arc::new(Registry::new()), shards)
    }

    /// Metrics registered in a caller-supplied `registry` (so serving,
    /// pipeline and store telemetry can share one exposition).
    pub fn with_registry(registry: Arc<Registry>, shards: usize) -> Self {
        ServiceMetrics {
            submitted: registry.counter("rulekit_serve_submitted_total"),
            completed: registry.counter("rulekit_serve_completed_total"),
            ran_on_caller: registry.counter("rulekit_serve_ran_on_caller_total"),
            ran_on_worker: registry.counter("rulekit_serve_ran_on_worker_total"),
            overloaded: registry.counter("rulekit_serve_overloaded_total"),
            deadline_shed: registry.counter("rulekit_serve_deadline_shed_total"),
            shutdown_shed: registry.counter("rulekit_serve_shutdown_shed_total"),
            degraded_served: registry.counter("rulekit_serve_degraded_served_total"),
            classifier_panics: registry.counter("rulekit_serve_classifier_panics_total"),
            swaps: registry.counter("rulekit_serve_snapshot_swaps_total"),
            candidates_total: registry.counter("rulekit_serve_candidates_total"),
            max_queue_depth: registry.gauge("rulekit_serve_queue_depth_max"),
            latency: registry.histogram("rulekit_serve_latency_nanos"),
            snapshot_build_nanos: registry.histogram("rulekit_serve_snapshot_build_nanos"),
            shard_depth: (0..shards)
                .map(|i| registry.gauge(&format!("rulekit_serve_queue_depth{{shard=\"{i}\"}}")))
                .collect(),
            registry,
        }
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The live queue-depth gauge of shard `i`.
    pub fn shard_depth(&self, i: usize) -> &Gauge {
        &self.shard_depth[i]
    }

    /// How many shards this service was built with.
    pub fn shard_count(&self) -> usize {
        self.shard_depth.len()
    }

    /// Live queue depth of every shard, in shard order (the `/health`
    /// endpoint's per-shard view).
    pub fn shard_depths(&self) -> Vec<i64> {
        self.shard_depth.iter().map(Gauge::value).collect()
    }

    pub(crate) fn note_queue_depth(&self, depth: u64) {
        self.max_queue_depth.set_max(depth.min(i64::MAX as u64) as i64);
    }

    /// An immutable snapshot of every counter plus derived quantities.
    pub fn report(&self) -> MetricsReport {
        let completed = self.completed.value();
        let latency = self.latency.snapshot();
        MetricsReport {
            submitted: self.submitted.value(),
            completed,
            ran_on_caller: self.ran_on_caller.value(),
            ran_on_worker: self.ran_on_worker.value(),
            overloaded: self.overloaded.value(),
            deadline_shed: self.deadline_shed.value(),
            shutdown_shed: self.shutdown_shed.value(),
            degraded_served: self.degraded_served.value(),
            classifier_panics: self.classifier_panics.value(),
            swaps: self.swaps.value(),
            max_queue_depth: self.max_queue_depth.value().max(0) as u64,
            avg_candidates: if completed == 0 {
                0.0
            } else {
                self.candidates_total.value() as f64 / completed as f64
            },
            p50: Duration::from_nanos(latency.quantile(0.50)),
            p90: Duration::from_nanos(latency.quantile(0.90)),
            p99: Duration::from_nanos(latency.quantile(0.99)),
            mean: Duration::from_nanos(latency.mean()),
        }
    }
}

/// Point-in-time counter snapshot with derived latency quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    pub submitted: u64,
    pub completed: u64,
    pub ran_on_caller: u64,
    pub ran_on_worker: u64,
    pub overloaded: u64,
    pub deadline_shed: u64,
    pub shutdown_shed: u64,
    pub degraded_served: u64,
    pub classifier_panics: u64,
    pub swaps: u64,
    pub max_queue_depth: u64,
    pub avg_candidates: f64,
    pub p50: Duration,
    pub p90: Duration,
    pub p99: Duration,
    pub mean: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_derives_avg_candidates() {
        let m = ServiceMetrics::new(2);
        m.completed.add(4);
        m.candidates_total.add(10);
        m.note_queue_depth(7);
        m.note_queue_depth(3);
        let r = m.report();
        assert_eq!(r.avg_candidates, 2.5);
        assert_eq!(r.max_queue_depth, 7);
    }

    #[test]
    fn latency_quantiles_are_conservative_and_ordered() {
        let m = ServiceMetrics::new(1);
        for micros in [10u64, 20, 40, 80, 5000, 100_000] {
            m.latency.record_duration(Duration::from_micros(micros));
        }
        let r = m.report();
        assert!(r.p50 >= Duration::from_micros(40), "p50 {:?}", r.p50);
        assert!(r.p99 >= Duration::from_micros(100_000), "p99 {:?}", r.p99);
        assert!(r.p50 <= r.p90 && r.p90 <= r.p99);
        assert!(r.mean >= Duration::from_micros(17_000));
    }

    #[test]
    fn empty_metrics_report_zero() {
        let m = ServiceMetrics::new(1);
        let r = m.report();
        assert_eq!(r.p99, Duration::ZERO);
        assert_eq!(r.mean, Duration::ZERO);
        assert_eq!(r.avg_candidates, 0.0);
    }

    #[test]
    fn shard_depth_gauges_render_with_labels() {
        let m = ServiceMetrics::new(3);
        m.shard_depth(0).inc();
        m.shard_depth(2).add(4);
        m.overloaded.inc();
        let text = m.registry().render_text();
        assert!(text.contains("rulekit_serve_queue_depth{shard=\"0\"} 1"), "text:\n{text}");
        assert!(text.contains("rulekit_serve_queue_depth{shard=\"2\"} 4"), "text:\n{text}");
        assert!(text.contains("rulekit_serve_overloaded_total 1"), "text:\n{text}");
    }
}
