//! An immutable, thread-shareable view of the pipeline's classification
//! state. `Chimera::snapshot()` compiles the current rule revisions into a
//! [`PipelineSnapshot`] that serving workers can hold across requests: the
//! snapshot never blocks on repository locks, never observes later edits,
//! and can be swapped wholesale when a newer revision is published.

use crate::obs::PipelineMetrics;
use crate::stages::{CompiledRules, Stages};
use crate::voting::Decision;
use rulekit_core::{AggregateStore, RuleTable};
use rulekit_data::{Product, TypeId};
use rulekit_learn::{Ensemble, Featurizer};
use std::collections::HashSet;
use std::sync::Arc;

/// The result of classifying one product against a snapshot, annotated with
/// the serving-side observability fields the metrics layer wants.
#[derive(Debug, Clone)]
pub struct SnapshotDecision {
    /// The Voting Master's decision.
    pub decision: Decision,
    /// Rule candidates the executors surfaced for this product (gate finals
    /// plus main-store whitelist assignments) — the "candidates considered"
    /// cost signal.
    pub candidates: usize,
    /// Whether this request skipped the learning ensemble (rules-only
    /// degraded path).
    pub degraded: bool,
}

/// A point-in-time, lock-free classification pipeline: compiled gate and
/// main-store classifiers and the (optional) learning ensemble, captured at
/// known repository revisions.
///
/// Cloning is cheap (a handful of `Arc` bumps) and the snapshot is
/// `Send + Sync`, so a worker pool can hand every shard its own copy and
/// hot-swap by replacing the `Arc<PipelineSnapshot>` it reads.
#[derive(Clone)]
pub struct PipelineSnapshot {
    pub(crate) compiled: CompiledRules,
    /// Live handle to the pipeline's streaming aggregates — snapshots see
    /// rates/quantiles as they move, matching the live pipeline. `None`
    /// when the tier is disabled (then `agg(...)` evaluates to Missing).
    pub(crate) aggregates: Option<Arc<AggregateStore>>,
    pub(crate) ensemble: Option<Arc<Ensemble>>,
    pub(crate) featurizer: Featurizer,
    pub(crate) suppressed: Arc<HashSet<TypeId>>,
    /// The pipeline's metric handles: served traffic records into the same
    /// stage histograms and decision counters as the live pipeline.
    pub(crate) obs: Arc<PipelineMetrics>,
}

impl PipelineSnapshot {
    /// Repository revisions this snapshot was compiled from: `(gate, main)`.
    pub fn revisions(&self) -> (u64, u64) {
        (self.compiled.gate_rev, self.compiled.rule_rev)
    }

    /// A single monotone version combining both repositories, usable as a
    /// staleness check (a snapshot built from later revisions compares
    /// greater as long as each repository's revision is monotone).
    pub fn version(&self) -> u64 {
        self.compiled.gate_rev + self.compiled.rule_rev
    }

    /// Number of enabled rules compiled in (main store).
    pub fn rule_count(&self) -> usize {
        self.compiled.rules.rule_count()
    }

    /// The main store's compiled rule table, for tests that check what a
    /// rebuild shares with the build before it.
    #[doc(hidden)]
    pub fn rule_table(&self) -> &RuleTable {
        self.compiled.rules.table()
    }

    /// Whether the learning ensemble is present (false → `classify` and
    /// `classify_rules_only` coincide).
    pub fn has_ensemble(&self) -> bool {
        self.ensemble.is_some()
    }

    /// Full Figure 2 path: gate short-circuit, then rules + ensemble voting.
    pub fn classify(&self, product: &Product) -> SnapshotDecision {
        self.run(product, false)
    }

    /// Degraded path for overload shedding: identical inference, gate and
    /// rule phases but the learning ensemble is skipped, so the Voting
    /// Master sees rules only. Cheaper; precision characteristics follow
    /// the rule store alone.
    pub fn classify_rules_only(&self, product: &Product) -> SnapshotDecision {
        self.run(product, true)
    }

    fn run(&self, product: &Product, rules_only: bool) -> SnapshotDecision {
        let stages = Stages {
            compiled: &self.compiled,
            aggregates: self.aggregates.as_ref(),
            ensemble: if rules_only { None } else { self.ensemble.as_deref() },
            featurizer: &self.featurizer,
            suppressed: &self.suppressed,
            obs: &self.obs,
        };
        let (decision, candidates) = stages.classify(product);
        SnapshotDecision { decision, candidates, degraded: rules_only }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Chimera, ChimeraConfig};
    use rulekit_data::{CatalogGenerator, LabeledCorpus, Taxonomy};

    fn trained() -> (Chimera, CatalogGenerator) {
        let tax = Taxonomy::builtin();
        let mut g = CatalogGenerator::with_seed(tax.clone(), 91);
        let mut chimera = Chimera::new(tax, ChimeraConfig::default());
        let corpus = LabeledCorpus::generate(&mut g, 2000);
        chimera.train(corpus.items());
        chimera.add_rules("rings? -> rings\nattr(ISBN) -> books\n").unwrap();
        (chimera, g)
    }

    #[test]
    fn snapshot_matches_live_pipeline() {
        let (mut chimera, mut g) = trained();
        let books = chimera.taxonomy().id_of("books").unwrap();
        let mut products: Vec<Product> = g.generate(100).into_iter().map(|i| i.product).collect();
        products.extend((0..5).map(|_| g.generate_for_type(books).product));
        let book = products.last().unwrap().clone();
        let agree = |chimera: &Chimera| {
            let snap = chimera.snapshot();
            for p in &products {
                assert_eq!(chimera.classify(p), snap.classify(p).decision, "on {:?}", p.title);
            }
            snap.classify(&book).decision
        };
        assert_eq!(agree(&chimera).type_id(), Some(books));

        // Inference-augmented: a gate rule whose only trigger is a derived
        // fact short-circuits on both paths.
        chimera.add_rules("infer: has(isbn) => fact media = book\n").unwrap();
        chimera.add_gate_rules("attr(media) -> books").unwrap();
        let Decision::Classified { explanation, .. } = agree(&chimera) else {
            panic!("book classified through the gate")
        };
        assert!(explanation[0].contains("gate keeper"), "{explanation:?}");

        // A suppressed type: neither the gate nor the vote may return it.
        chimera.scale_down(books, "test");
        assert!(agree(&chimera).is_declined());
    }

    #[test]
    fn served_classifies_feed_the_pipeline_metrics() {
        let (chimera, mut g) = trained();
        let snap = chimera.snapshot();
        let before = chimera.metrics().registry().snapshot();
        let gate = "rulekit_chimera_stage_nanos{stage=\"gate\"}";
        let decisions = "rulekit_chimera_decisions_total";
        assert_eq!(before.histogram(gate).unwrap().count(), 0);

        let items = g.generate(40);
        for (i, item) in items.iter().enumerate() {
            if i % 2 == 0 {
                snap.classify(&item.product);
            } else {
                snap.classify_rules_only(&item.product);
            }
        }
        let after = chimera.metrics().registry().snapshot();
        assert_eq!(after.histogram(gate).unwrap().count(), 40);
        assert_eq!(after.counter(decisions), Some(before.counter(decisions).unwrap() + 40));
    }

    #[test]
    fn snapshot_is_isolated_from_later_edits() {
        let (chimera, _) = trained();
        let tax = chimera.taxonomy().clone();
        let rings = tax.id_of("rings").unwrap();
        let snap = chimera.snapshot();
        let (_, rev_before) = snap.revisions();

        // Disable every ring rule after taking the snapshot.
        for rule in chimera.rules.enabled_snapshot() {
            if rule.action == rulekit_core::RuleAction::Assign(rings) {
                chimera.rules.disable(rule.id, "test");
            }
        }

        // The frozen snapshot still sees the ring rule; a fresh one has a
        // later revision with the rule gone.
        assert_eq!(snap.classify_rules_only(&ring_product()).decision.type_id(), Some(rings));
        let fresh = chimera.snapshot();
        assert!(fresh.revisions().1 > rev_before);
        assert!(fresh.version() > snap.version());
    }

    fn ring_product() -> rulekit_data::Product {
        rulekit_data::Product {
            id: 0,
            title: "diamond accent wedding ring".into(),
            description: String::new(),
            attributes: Vec::new(),
            vendor: rulekit_data::VendorId(0),
        }
    }

    #[test]
    fn rules_only_path_skips_ensemble_and_reports_degraded() {
        let (chimera, _) = trained();
        let snap = chimera.snapshot();
        assert!(snap.has_ensemble());
        let tax = chimera.taxonomy().clone();
        let rings = tax.id_of("rings").unwrap();
        let product = ring_product();

        let full = snap.classify(&product);
        assert!(!full.degraded);
        let degraded = snap.classify_rules_only(&product);
        assert!(degraded.degraded);
        // The ring rule alone still carries the decision.
        assert_eq!(degraded.decision.type_id(), Some(rings));
    }

    #[test]
    fn learn_stage_histogram_counts_only_requests_that_ran_the_ensemble() {
        let stage_count = |chimera: &Chimera, stage: &str| {
            chimera
                .metrics()
                .registry()
                .snapshot()
                .histogram(&format!("rulekit_chimera_stage_nanos{{stage=\"{stage}\"}}"))
                .expect("stage registered")
                .count()
        };
        // No gate rule short-circuits this product, so every call reaches the rules.
        let product = ring_product();

        let (trained, _) = trained();
        let snap = trained.snapshot();
        for _ in 0..7 {
            snap.classify_rules_only(&product);
        }
        assert_eq!(stage_count(&trained, "rules"), 7);
        assert_eq!(stage_count(&trained, "learn"), 0, "degraded answers ran no ensemble");
        snap.classify(&product);
        assert_eq!(stage_count(&trained, "learn"), 1);

        let untrained = Chimera::new(Taxonomy::builtin(), ChimeraConfig::default());
        untrained.add_rules("rings? -> rings\n").unwrap();
        for _ in 0..7 {
            untrained.classify(&product);
        }
        assert_eq!(stage_count(&untrained, "rules"), 7);
        assert_eq!(stage_count(&untrained, "learn"), 0, "an untrained pipeline has no ensemble");
    }

    #[test]
    fn snapshot_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<PipelineSnapshot>();
        let (chimera, mut g) = trained();
        let snap = chimera.snapshot();
        let copy = snap.clone();
        let item = g.generate_one();
        assert_eq!(snap.classify(&item.product).decision, copy.classify(&item.product).decision);
    }

    #[test]
    fn candidates_counts_rule_activity() {
        let (chimera, _) = trained();
        let snap = chimera.snapshot();
        assert!(snap.classify(&ring_product()).candidates >= 1);
    }
}
