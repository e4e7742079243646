//! Figure 2's classify path, written once: fact inference → prepare → Gate
//! Keeper short-circuit → rules → learning ensemble → Voting Master.
//!
//! [`Stages`] borrows the stages from whoever owns them — the live
//! [`Chimera`](crate::Chimera) or a frozen
//! [`PipelineSnapshot`](crate::PipelineSnapshot) — so both decide through the
//! same code and feed the same [`PipelineMetrics`].

use crate::obs::PipelineMetrics;
use crate::voting::{vote, Decision, VotingConfig};
use rulekit_core::{AggregateStore, InferenceEngine, PreparedProduct, RuleClassifier};
use rulekit_data::{Product, TypeId};
use rulekit_ie::IePipeline;
use rulekit_learn::{Classifier, Ensemble, Featurizer, Prediction};
use rulekit_obs::SpanTimer;
use std::collections::HashSet;
use std::sync::Arc;

/// The rule side of the pipeline compiled at one pair of repository
/// revisions. Cheap to clone (four `Arc` bumps).
#[derive(Clone)]
pub(crate) struct CompiledRules {
    /// The gate and main stores' change signals, read before their entries.
    pub changes: [u64; 2],
    pub gate_rev: u64,
    pub rule_rev: u64,
    pub gate: Arc<RuleClassifier>,
    pub rules: Arc<RuleClassifier>,
    /// Forward-chaining engine over the `infer:` rules of both stores.
    pub infer: Arc<InferenceEngine>,
    /// The `ie` extractors that seed inference working memory with
    /// `ie_<field>` facts. `Some` exactly when the inference tier is enabled
    /// and `infer` is non-empty; `None` skips the tier.
    pub ie: Option<Arc<IePipeline>>,
}

/// A borrowed view of every stage one classification passes through.
pub(crate) struct Stages<'a> {
    pub compiled: &'a CompiledRules,
    /// Streaming aggregates `agg("...")` expressions read. `None` when the
    /// inference tier is disabled (then `agg(...)` evaluates to Missing).
    pub aggregates: Option<&'a Arc<AggregateStore>>,
    /// `None` for an untrained pipeline and for the rules-only degraded
    /// path: the Voting Master then sees rules alone.
    pub ensemble: Option<&'a Ensemble>,
    pub featurizer: &'a Featurizer,
    pub suppressed: &'a HashSet<TypeId>,
    pub voting: VotingConfig,
    pub obs: &'a PipelineMetrics,
}

impl Stages<'_> {
    /// Classifies one product (Figure 2 left to right). Also returns the
    /// rule candidates surfaced for it — gate finals plus main-store
    /// whitelist assignments — the serving tier's cost signal.
    pub(crate) fn classify(&self, product: &Product) -> (Decision, usize) {
        let CompiledRules { gate, rules, infer, ie, .. } = self.compiled;
        let obs = self.obs;

        // Fact-inference tier: chain to fixpoint, then classify the
        // augmented product. Derived facts are input to the rule layer, so
        // the rules-only path runs this too.
        let augmented;
        let product = match ie {
            Some(ie) => {
                let span = SpanTimer::start(&obs.infer.nanos);
                let seeds: Vec<(String, String)> = ie
                    .extract(&product.title)
                    .into_iter()
                    .map(|ex| (format!("ie_{}", ex.field), ex.value))
                    .collect();
                let outcome = infer.infer(product, &seeds, self.aggregates.cloned());
                span.finish();
                obs.infer.record(&outcome);
                match outcome.augmented(product) {
                    Some(p) => {
                        augmented = p;
                        &augmented
                    }
                    None => product,
                }
            }
            None => product,
        };
        // Prepare once; the gate and the main rule layer share the view
        // (and any attached aggregate store).
        let prepared = PreparedProduct::with_aggregates(product, self.aggregates.cloned());

        // Gate Keeper: an unambiguous gate hit classifies immediately.
        let span = SpanTimer::start(&obs.stage_gate);
        let gate_verdict = gate.classify_prepared(&prepared);
        span.finish();
        let finals = gate_verdict.final_candidates();
        if finals.len() == 1 && !self.suppressed.contains(&finals[0].0) {
            obs.gate_shortcircuits.inc();
            obs.decisions.inc();
            let decision = Decision::Classified {
                ty: finals[0].0,
                confidence: 1.0,
                explanation: vec!["gate keeper short-circuit".to_string()],
            };
            return (decision, finals.len());
        }

        // Rule-based + attribute/value classifiers.
        let span = SpanTimer::start(&obs.stage_rules);
        let verdict = rules.classify_prepared(&prepared);
        span.finish();
        // Learning ensemble. A request that runs none (untrained pipeline,
        // rules-only degraded path) records no learn-stage sample, so the
        // histogram describes the requests that paid for the stage.
        let learned = match self.ensemble {
            Some(e) => {
                let span = SpanTimer::start(&obs.stage_learn);
                let learned = e.predict(&self.featurizer.features(product));
                span.finish();
                learned
            }
            None => Prediction::empty(),
        };
        let span = SpanTimer::start(&obs.stage_vote);
        let decision = vote(&verdict, &learned, self.suppressed, self.voting);
        span.finish();
        obs.decisions.inc();
        if decision.is_declined() {
            obs.declined.inc();
        }
        (decision, finals.len() + verdict.assigned.len())
    }
}
