//! Front-end telemetry in the shared `rulekit-obs` registry: a live
//! connection gauge on the acceptor, per-route request counters and latency
//! histograms (bounded cardinality — parameterized routes share a label),
//! and the socket-edge overload/shed/error counters.

use crate::router::Route;
use rulekit_obs::{Counter, Gauge, Histogram, Registry};

/// All metric handles the server records into. One instance per server,
/// registered into a caller-supplied registry so `/metrics` serves the
/// serving tier, the store, and the front-end in one exposition.
pub struct NetMetrics {
    /// Connections currently open (acceptor gauge).
    pub connections: Gauge,
    /// Connections accepted since start.
    pub accepted: Counter,
    /// Connections rejected because the handler pool's queue was full.
    pub accept_rejected: Counter,
    /// Requests that failed HTTP parsing (4xx/5xx at the codec layer).
    pub http_errors: Counter,
    /// Classify requests answered 503 because the admission queue was full.
    pub overload_shed: Counter,
    /// Requests answered 503 because the server was draining.
    pub drain_rejected: Counter,
    /// Per-route request counters, indexed like [`Route::labels`].
    route_requests: Vec<Counter>,
    /// Per-route latency histograms (nanoseconds), same indexing.
    route_latency: Vec<Histogram>,
}

impl NetMetrics {
    /// Registers the front-end metric families in `registry`.
    pub fn register(registry: &Registry) -> NetMetrics {
        let labels = Route::labels();
        NetMetrics {
            connections: registry.gauge("rulekit_net_connections"),
            accepted: registry.counter("rulekit_net_accepted_total"),
            accept_rejected: registry.counter("rulekit_net_accept_rejected_total"),
            http_errors: registry.counter("rulekit_net_http_errors_total"),
            overload_shed: registry.counter("rulekit_net_overload_shed_total"),
            drain_rejected: registry.counter("rulekit_net_drain_rejected_total"),
            route_requests: labels
                .iter()
                .map(|l| registry.counter(&format!("rulekit_net_requests_total{{route=\"{l}\"}}")))
                .collect(),
            route_latency: labels
                .iter()
                .map(|l| {
                    registry.histogram(&format!("rulekit_net_route_latency_nanos{{route=\"{l}\"}}"))
                })
                .collect(),
        }
    }

    fn index(route: Route) -> usize {
        let label = route.label();
        Route::labels().iter().position(|l| *l == label).expect("route label registered")
    }

    /// The request counter for `route`.
    pub fn route_requests(&self, route: Route) -> &Counter {
        &self.route_requests[Self::index(route)]
    }

    /// The latency histogram for `route` (nanoseconds).
    pub fn route_latency(&self, route: Route) -> &Histogram {
        &self.route_latency[Self::index(route)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn route_metrics_render_with_labels() {
        let registry = Registry::new();
        let m = NetMetrics::register(&registry);
        m.route_requests(Route::Classify).inc();
        m.route_latency(Route::Classify).record_duration(Duration::from_micros(250));
        m.route_requests(Route::GetRule(9)).inc();
        m.connections.set(3);
        let text = registry.render_text();
        assert!(text.contains("rulekit_net_requests_total{route=\"classify\"} 1"), "{text}");
        assert!(text.contains("rulekit_net_requests_total{route=\"rulesets_get\"} 1"), "{text}");
        assert!(
            text.contains("rulekit_net_route_latency_nanos{route=\"classify\",quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("rulekit_net_connections 3"), "{text}");
    }
}
