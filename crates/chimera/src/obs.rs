//! Pipeline observability: per-stage latency histograms and decision
//! counters over a shared [`Registry`].
//!
//! The paper's operators "monitor the system's precision/recall
//! continuously and intervene when it drifts" (§3.3); the drift monitor
//! covers the *quality* half, and this module covers the *mechanics* half —
//! where classification time goes (gate keeper, rule execution, learning,
//! voting, analysis) and how many candidates the engine surfaces.
//! Every instrument is wait-free on the hot path; a pipeline that nobody
//! snapshots pays a few atomic adds per product.

use rulekit_core::{ExecMetrics, ExecutorKind};
use rulekit_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Stage timers and counters for one [`crate::Chimera`] pipeline. All
/// handles point into the pipeline's [`Registry`], so a snapshot of the
/// registry sees everything at once.
pub struct PipelineMetrics {
    registry: Arc<Registry>,
    /// Gate Keeper stage latency (nanoseconds per product).
    pub stage_gate: Histogram,
    /// Rule-execution stage latency (main store classify).
    pub stage_rules: Histogram,
    /// Learning-ensemble stage latency (feature extraction + predict).
    pub stage_learn: Histogram,
    /// Voting Master stage latency.
    pub stage_vote: Histogram,
    /// Analysis stage latency (per batch: mining flagged items into rules
    /// and training data).
    pub stage_analysis: Histogram,
    /// Products classified through the full pipeline path.
    pub decisions: Counter,
    /// Products the Voting Master declined.
    pub declined: Counter,
    /// Gate Keeper short-circuits (classified without rules/learning).
    pub gate_shortcircuits: Counter,
    /// Batches processed by the QA loop.
    pub batches: Counter,
    /// Candidate accounting for the execution engine (shared by the gate
    /// and main-store classifiers).
    pub exec: Arc<ExecMetrics>,
    /// Fact-inference tier accounting (`rulekit_infer_*`), populated when
    /// the tier is enabled and infer rules exist.
    pub infer: Arc<InferMetrics>,
}

/// Counters and histograms for the forward-chaining inference tier.
pub struct InferMetrics {
    /// Products run through inference (tier enabled, ≥1 infer rule).
    pub products: Counter,
    /// Facts derived across all products.
    pub facts: Counter,
    /// Products whose chaining stopped at the round bound before fixpoint.
    pub bound_hits: Counter,
    /// Chaining rounds per product.
    pub rounds: Histogram,
    /// Inference latency per product (nanoseconds), including `ie` seeding.
    pub nanos: Histogram,
}

impl InferMetrics {
    /// Registers the `rulekit_infer_*` family in `registry`.
    pub fn register(registry: &Registry) -> Arc<InferMetrics> {
        Arc::new(InferMetrics {
            products: registry.counter("rulekit_infer_products_total"),
            facts: registry.counter("rulekit_infer_facts_total"),
            bound_hits: registry.counter("rulekit_infer_bound_hits_total"),
            rounds: registry.histogram("rulekit_infer_rounds"),
            nanos: registry.histogram("rulekit_infer_nanos"),
        })
    }

    /// Records one chained product.
    pub fn record(&self, outcome: &rulekit_core::InferenceOutcome) {
        self.products.inc();
        self.facts.add(outcome.facts.len() as u64);
        self.rounds.record(outcome.rounds as u64);
        if outcome.hit_bound {
            self.bound_hits.inc();
        }
    }
}

impl PipelineMetrics {
    /// Registers the pipeline metric family in `registry`.
    pub fn register(registry: Arc<Registry>) -> Arc<PipelineMetrics> {
        let stage =
            |s: &str| registry.histogram(&format!("rulekit_chimera_stage_nanos{{stage=\"{s}\"}}"));
        Arc::new(PipelineMetrics {
            stage_gate: stage("gate"),
            stage_rules: stage("rules"),
            stage_learn: stage("learn"),
            stage_vote: stage("vote"),
            stage_analysis: stage("analysis"),
            decisions: registry.counter("rulekit_chimera_decisions_total"),
            declined: registry.counter("rulekit_chimera_declined_total"),
            gate_shortcircuits: registry.counter("rulekit_chimera_gate_shortcircuits_total"),
            batches: registry.counter("rulekit_chimera_batches_total"),
            exec: ExecMetrics::register(&registry, ExecutorKind::LiteralScan),
            infer: InferMetrics::register(&registry),
            registry,
        })
    }

    /// The registry every handle points into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}
