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
}

/// Serves snapshots of a [`Chimera`] pipeline. Rule churn goes through the
/// pipeline's `Arc<RuleRepository>` handles (shared-reference APIs), so
/// analysts can keep editing while the service runs.
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
    fn build(&self) -> Arc<dyn RequestClassifier> {
        Arc::new(self.chimera.snapshot())
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
}

/// A [`ChimeraProvider`] whose main rule store is durable: rules recover
/// from checkpoint + write-ahead log *before* the first snapshot is built,
/// so a restarted service re-admits traffic with its full pre-crash rule
/// set, and every subsequent mutation made through
/// [`DurableProvider::store`] is persisted before it is acknowledged.
///
/// Construction order is the durability contract: [`DurableProvider::open`]
/// runs recovery into `chimera.rules` first; [`crate::RuleService::start`]
/// then builds the initial [`PipelineSnapshot`] synchronously — traffic can
/// never observe an empty post-restart rule set.
///
/// [`PipelineSnapshot`]: rulekit_chimera::PipelineSnapshot
pub struct DurableProvider {
    inner: ChimeraProvider,
    store: Arc<rulekit_store::DurableRepository>,
}

impl DurableProvider {
    /// Recovers durable state from `storage` into `chimera`'s main rule
    /// store, then wraps the pipeline as a snapshot provider. Uses the
    /// pipeline's own parser, so dictionary-based rules resolve exactly as
    /// they did when first added (register dictionaries before calling).
    pub fn open(
        chimera: Arc<Chimera>,
        storage: Arc<dyn rulekit_store::Storage>,
        config: rulekit_store::DurableConfig,
    ) -> Result<DurableProvider, rulekit_store::StoreError> {
        let parser = chimera.parser().clone();
        // Observed on the pipeline's registry, so the one `/metrics` scrape
        // carries the `rulekit_store_*` family too.
        let metrics = rulekit_store::StoreMetrics::register(chimera.metrics().registry());
        let store = Arc::new(rulekit_store::DurableRepository::open_into_observed(
            chimera.rules.clone(),
            storage,
            parser,
            config,
            Some(metrics),
        )?);
        Ok(DurableProvider { inner: ChimeraProvider::new(chimera), store })
    }

    /// The durable mutation handle. Rule churn during serving must go
    /// through this (not the raw repository) to be crash-safe; the
    /// refresher picks up changes exactly as with a plain
    /// [`ChimeraProvider`].
    pub fn store(&self) -> &Arc<rulekit_store::DurableRepository> {
        &self.store
    }

    /// The wrapped pipeline.
    pub fn chimera(&self) -> &Arc<Chimera> {
        self.inner.chimera()
    }

    /// What recovery found when the provider opened.
    pub fn recovery(&self) -> &rulekit_store::RecoveryReport {
        self.store.recovery()
    }
}

impl SnapshotProvider for DurableProvider {
    fn build(&self) -> Arc<dyn RequestClassifier> {
        self.inner.build()
    }

    fn revision(&self) -> u64 {
        self.inner.revision()
    }

    fn wait_for_change(&self, last_seen: u64, timeout: Duration) -> u64 {
        self.inner.wait_for_change(last_seen, timeout)
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
