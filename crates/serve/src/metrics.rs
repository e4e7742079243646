//! Service observability over the shared `rulekit-obs` registry: lock-free
//! counters, per-shard queue-depth gauges, and log-linear latency
//! histograms, so the hot path never takes a lock to record.
//!
//! Callers read the handles directly (`completed.value()`) or the registry
//! ([`ServiceMetrics::registry`]), which renders the full Prometheus-style
//! exposition (queue depths, shed counts, latency quantiles) for scraping.

use rulekit_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// All counters the service maintains. Shared (`Arc`) between the service,
/// its workers, and its readers. Every handle lives in the registry, so one
/// text exposition covers the whole tier.
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
    /// Registers the serving metric family for a `shards`-wide service in
    /// `registry` (so serving, pipeline and store telemetry can share one
    /// exposition).
    pub fn register(registry: Arc<Registry>, shards: usize) -> Arc<ServiceMetrics> {
        Arc::new(ServiceMetrics {
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
        })
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The live queue-depth gauge of shard `i`.
    pub fn shard_depth(&self, i: usize) -> &Gauge {
        &self.shard_depth[i]
    }

    /// Live queue depth of every shard, in shard order (the `/health`
    /// endpoint's per-shard view).
    pub fn shard_depths(&self) -> Vec<i64> {
        self.shard_depth.iter().map(Gauge::value).collect()
    }

    pub(crate) fn note_queue_depth(&self, depth: u64) {
        self.max_queue_depth.set_max(depth.min(i64::MAX as u64) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_max_keeps_the_high_water_mark() {
        let m = ServiceMetrics::register(Arc::new(Registry::new()), 1);
        m.note_queue_depth(7);
        m.note_queue_depth(3);
        assert_eq!(m.max_queue_depth.value(), 7);
    }

    #[test]
    fn shard_depth_gauges_render_with_labels() {
        let m = ServiceMetrics::register(Arc::new(Registry::new()), 3);
        m.shard_depth(0).inc();
        m.shard_depth(2).add(4);
        m.overloaded.inc();
        let text = m.registry().render_text();
        assert!(text.contains("rulekit_serve_queue_depth{shard=\"0\"} 1"), "text:\n{text}");
        assert!(text.contains("rulekit_serve_queue_depth{shard=\"2\"} 4"), "text:\n{text}");
        assert!(text.contains("rulekit_serve_overloaded_total 1"), "text:\n{text}");
    }
}
