//! # rulekit-serve
//!
//! A hot-swappable, sharded rule-classification service — the serving tier
//! the paper's §2 production setting implies ("serve heavy traffic from
//! millions of users") for the rule machinery the rest of the workspace
//! builds.
//!
//! Architecture:
//!
//! - **Shards** ([`RuleService`]): N shards, each a bounded queue, a worker
//!   and its own `Arc` handle to the current compiled snapshot, executing
//!   one request at a time. [`RuleService::submit`] queues for the worker
//!   and never blocks; [`RuleService::classify`] blocks, and runs the
//!   request on the caller's own thread when a shard is idle — no thread
//!   hand-off — queueing only when none is.
//! - **Lock-free hot swap**: a background refresher blocks on the rule
//!   repository's change signal, recompiles a [`PipelineSnapshot`] when
//!   analysts edit rules, and publishes it. Whoever next takes a shard
//!   adopts it; in-flight requests finish on the old snapshot, so rule
//!   edits reach traffic within one rebuild interval with zero pauses —
//!   the §2.2 "fix the system *while* it continues serving" requirement.
//! - **Backpressure**: admission is [`Admission::Enqueued`] or
//!   [`Admission::Overloaded`] — a full service rejects instead of
//!   buffering unboundedly. Per-request deadlines shed stale queued work
//!   with an explicit [`ServeError::DeadlineExceeded`].
//! - **Graceful degradation**: above a queue high-water mark the service
//!   falls back from full Chimera voting to the cheaper rules-only path
//!   (and records that it did); hysteresis restores full fidelity once the
//!   backlog drains.
//! - **One classify path**: a snapshot decides through the same Figure-2
//!   function as the live pipeline and records into the pipeline's stage
//!   histograms and decision counters, so `/metrics` shows where served
//!   requests spend their pipeline time.
//! - **Built-in metrics** ([`ServiceMetrics`]): lock-free counters and a
//!   log-bucketed latency histogram — p50/p99, throughput inputs, queue
//!   depth, swap counts, candidates considered.
//! - **Durability** ([`DurableProvider`]): the main rule store can run on
//!   `rulekit-store`'s write-ahead log + checkpoints. A restarted service
//!   recovers its full rule set and rebuilds a compiled snapshot *before*
//!   admitting traffic; rule churn through the durable handle is persisted
//!   before it is acknowledged.
//! - **Explicit shutdown**: stopping the service completes every queued
//!   request with [`ServeError::ShuttingDown`] (counted in
//!   `shutdown_shed`) — callers blocked on a [`ResponseHandle`] never
//!   hang, backed by a fulfill-on-drop guarantee in the response channel.
//!
//! [`PipelineSnapshot`]: rulekit_chimera::PipelineSnapshot

pub mod classifier;
pub mod metrics;
pub mod provider;
pub mod queue;
pub mod response;
pub mod service;

pub use classifier::RequestClassifier;
pub use metrics::{MetricsReport, ServiceMetrics};
pub use provider::{ChimeraProvider, DurableProvider, SnapshotProvider, StaticProvider};
pub use queue::BoundedQueue;
pub use response::{Admission, ClassifyOutcome, ResponseHandle, ServeError};
pub use service::{RuleService, ServeConfig};
