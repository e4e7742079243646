//! Snapshot providers: where fresh compiled classifiers come from. The
//! background refresher blocks on [`SnapshotProvider::wait_for_change`] and
//! republishes whenever the underlying rule state moves, which is what
//! makes analyst edits visible to in-flight traffic without a restart.

use crate::classifier::RequestClassifier;
use rulekit_chimera::Chimera;
use std::sync::Arc;
use std::time::Duration;

/// A source of compiled classifier snapshots plus a change signal.
pub trait SnapshotProvider: Send + Sync {
    /// Compiles the current state into an immutable classifier.
    fn build(&self) -> Arc<dyn RequestClassifier>;

    /// A monotone revision of the underlying state: it moves on every
    /// change a rebuild would see.
    fn revision(&self) -> u64;

    /// Blocks until `revision()` may exceed `last_seen`, or `timeout`
    /// elapses. Returns the current revision. May wake spuriously; callers
    /// must compare revisions themselves.
    fn wait_for_change(&self, last_seen: u64, timeout: Duration) -> u64;

    /// Ends the current (or else the next) [`SnapshotProvider::wait_for_change`]
    /// early; a stopping service calls it. The default waits out the timeout.
    fn wake(&self) {}
}

/// Serves snapshots of a [`Chimera`] pipeline. Rule churn goes through the
/// pipeline's `Arc<RuleRepository>` handles (shared-reference APIs), so
/// analysts can keep editing while the service runs.
///
/// For a durable rule store, open it *into* `chimera.rules` first
/// (`rulekit_store::DurableRepository::open_into_observed`) and then start
/// the service on this provider: recovery runs before
/// [`crate::RuleService::start`] builds the initial snapshot, so traffic
/// never sees an empty post-restart rule set, and edits made through the
/// durable handle reach the refresher like any other.
pub struct ChimeraProvider {
    chimera: Arc<Chimera>,
}

impl ChimeraProvider {
    pub fn new(chimera: Arc<Chimera>) -> Self {
        ChimeraProvider { chimera }
    }

    /// The wrapped pipeline (e.g. to reach its rule repositories).
    pub fn chimera(&self) -> &Arc<Chimera> {
        &self.chimera
    }
}

impl SnapshotProvider for ChimeraProvider {
    /// Publishes the pipeline's cached snapshot itself: with no edit since
    /// the last build, the same allocation.
    fn build(&self) -> Arc<dyn RequestClassifier> {
        self.chimera.cached_snapshot()
    }

    /// The sum of both stores' change signals: it moves on every edit and
    /// every restore (a follower installing a snapshot at the same or a
    /// lower revision included) and never moves backwards.
    fn revision(&self) -> u64 {
        self.chimera.gate_rules.changes() + self.chimera.rules.changes()
    }

    fn wait_for_change(&self, last_seen: u64, timeout: Duration) -> u64 {
        // The main store's signal is read first, so a change landing after
        // it either shows in `current` or ends the wait at once.
        let main_seen = self.chimera.rules.changes();
        let current = self.chimera.gate_rules.changes() + main_seen;
        if current != last_seen {
            return current;
        }
        // Block on the main store's change signal (the gate store churns
        // rarely; its edits are picked up on the next wakeup at the latest).
        self.chimera.rules.wait_for_change(main_seen, timeout);
        self.revision()
    }

    fn wake(&self) {
        self.chimera.rules.wake_waiter();
    }
}

/// A provider over a fixed classifier — no churn, no change signal. Useful
/// for tests and benchmarks that want full control of the snapshot.
pub struct StaticProvider {
    classifier: Arc<dyn RequestClassifier>,
}

impl StaticProvider {
    pub fn new(classifier: Arc<dyn RequestClassifier>) -> Self {
        StaticProvider { classifier }
    }
}

impl SnapshotProvider for StaticProvider {
    fn build(&self) -> Arc<dyn RequestClassifier> {
        self.classifier.clone()
    }

    fn revision(&self) -> u64 {
        self.classifier.version()
    }

    fn wait_for_change(&self, _last_seen: u64, timeout: Duration) -> u64 {
        std::thread::sleep(timeout);
        self.revision()
    }
}
