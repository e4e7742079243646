//! # rulekit-obs
//!
//! The observability substrate the paper's operational loop assumes:
//! Chimera's operators "monitor the system's precision/recall continuously
//! and intervene when it drifts" (§3.3), and none of that is possible
//! without a metrics surface that the serving, execution, and durability
//! layers can record into without slowing down.
//!
//! Design constraints, in order:
//!
//! 1. **Wait-free recording.** Counters and histogram recording are plain
//!    relaxed atomic adds — no locks, no CAS loops on the count path — so
//!    instrumentation can sit inside the rule-execution hot loop without
//!    disturbing the literal-scan throughput numbers.
//! 2. **No dependencies.** Only `std`; the crate sits below everything else
//!    in the workspace and can be pulled in anywhere.
//! 3. **Sharded registration.** The name→metric map is sharded and only
//!    touched at registration/snapshot time; steady-state recording goes
//!    through pre-registered handles ([`Counter`], [`Gauge`],
//!    [`Histogram`]) that are a couple of `Arc` hops from the atomics.
//!
//! The pieces:
//!
//! * [`Registry`] — get-or-register metrics by name, snapshot them all;
//! * [`Counter`] — monotone, cache-line-striped to absorb multi-writer
//!   contention;
//! * [`Gauge`] — signed level (queue depths, recovered-entry counts);
//! * [`Histogram`] — log-linear value distribution with p50/p95/p99/max
//!   readout, bounded relative error, lossless merge;
//! * [`SpanTimer`] — RAII stage timer recording elapsed nanoseconds into a
//!   histogram on drop;
//! * [`MetricsSnapshot`] — point-in-time view with a Prometheus-style
//!   [`MetricsSnapshot::render_text`] exposition.

#![forbid(unsafe_code)]

pub mod histogram;
pub mod metric;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use histogram::{Histogram, HistogramSnapshot, SUB_BUCKETS};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
pub use snapshot::{MetricValue, MetricsSnapshot};
pub use span::SpanTimer;
