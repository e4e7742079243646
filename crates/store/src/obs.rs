//! Durability telemetry: WAL append/fsync latency, checkpoint timing, and
//! recovery accounting over a shared [`Registry`].
//!
//! Two metric families with deliberately different semantics:
//!
//! - **Work counters and latency histograms** (`*_total`, `*_nanos`) count
//!   operations *performed by this process* — appends, fsyncs, checkpoints,
//!   records replayed during an open. They accumulate.
//! - **Persisted-state gauges** (`rulekit_store_persisted_*`,
//!   `rulekit_store_wal_records`) are **set** to the recovered/current
//!   level, never incremented. Crash recovery replays the WAL through the
//!   normal mutation API, so if recovery *incremented* per-entry metrics, a
//!   crash-reopen-crash-reopen cycle would double- and triple-count rules
//!   that were persisted exactly once. Setting the gauge from recovered
//!   state makes recovery idempotent by construction — the regression test
//!   in `tests/recovery.rs` reopens twice and asserts the level is flat.

use rulekit_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Metric handles for one durable repository and its WAL writer.
pub struct StoreMetrics {
    /// `storage.append` latency per WAL record (nanoseconds).
    pub wal_append_nanos: Histogram,
    /// `storage.sync` latency per explicit fsync (nanoseconds).
    pub wal_fsync_nanos: Histogram,
    /// WAL records successfully appended (acknowledged) by this process.
    pub wal_appends: Counter,
    /// Full checkpoint latency: snapshot + encode + write + WAL reset.
    pub checkpoint_nanos: Histogram,
    /// Checkpoints written by this process.
    pub checkpoints: Counter,
    /// WAL records applied during recovery opens.
    pub replay_applied: Counter,
    /// WAL records skipped during recovery (already in the checkpoint).
    pub replay_skipped: Counter,
    /// Recovery opens performed against this registry.
    pub recoveries: Counter,
    /// Rules (any status) in the repository — a level, set on recovery and
    /// after every acknowledged mutation.
    pub persisted_rules: Gauge,
    /// Repository revision — a level, set, never incremented.
    pub persisted_revision: Gauge,
    /// Acknowledged records currently in the WAL (drops to 0 on reset).
    pub wal_records: Gauge,
}

impl StoreMetrics {
    /// Registers the store metric family in `registry`.
    pub fn register(registry: &Registry) -> Arc<StoreMetrics> {
        Arc::new(StoreMetrics {
            wal_append_nanos: registry.histogram("rulekit_store_wal_append_nanos"),
            wal_fsync_nanos: registry.histogram("rulekit_store_wal_fsync_nanos"),
            wal_appends: registry.counter("rulekit_store_wal_appends_total"),
            checkpoint_nanos: registry.histogram("rulekit_store_checkpoint_nanos"),
            checkpoints: registry.counter("rulekit_store_checkpoints_total"),
            replay_applied: registry.counter("rulekit_store_replay_applied_total"),
            replay_skipped: registry.counter("rulekit_store_replay_skipped_total"),
            recoveries: registry.counter("rulekit_store_recoveries_total"),
            persisted_rules: registry.gauge("rulekit_store_persisted_rules"),
            persisted_revision: registry.gauge("rulekit_store_persisted_revision"),
            wal_records: registry.gauge("rulekit_store_wal_records"),
        })
    }
}
