//! The Chimera system (Figure 2): Gate Keeper → {rule-based,
//! attribute/value, learning} classifiers → Voting Master → Filter →
//! Result, with the crowd-sampled QA loop and the Analysis stage feeding
//! rules and training data back in.

use crate::analysis::SimulatedAnalysis;
use crate::metrics::OracleMetrics;
use crate::obs::PipelineMetrics;
use crate::stages::{CompiledRules, Stages};
use crate::voting::Decision;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rulekit_core::{
    map_chunks, AggregateStore, InferenceEngine, LiteralScanExecutor, ParseError, RuleAction,
    RuleClassifier, RuleEntry, RuleId, RuleMeta, RuleParser, RuleRepository,
};
use rulekit_crowd::{CrowdSim, PrecisionEstimate};
use rulekit_data::{Batch, GeneratedItem, Product, Taxonomy, TypeId};
use rulekit_ie::IePipeline;
use rulekit_learn::{default_ensemble, Ensemble, Featurizer, TrainingSet};
use rulekit_maint::DriftMonitor;
use rulekit_obs::{Registry, SpanTimer};
use std::collections::HashSet;
use std::sync::Arc;

/// The business precision gate (the paper's 92%).
const PRECISION_THRESHOLD: f64 = 0.92;
/// Result-sample size per batch for crowd QA.
const QA_SAMPLE_SIZE: usize = 100;
/// Abstention threshold inside the learning ensemble.
const ENSEMBLE_CONFIDENCE: f64 = 0.45;
/// Maximum rerun rounds after analyst patching per batch.
const MAX_REDOS: usize = 2;
/// Drift monitor sliding-window size.
const MONITOR_WINDOW: usize = 60;
/// Drift monitor minimum samples before alarming.
const MONITOR_MIN_SAMPLES: usize = 12;

/// Chimera configuration.
#[derive(Debug, Clone)]
pub struct ChimeraConfig {
    /// Worker threads for batch classification.
    pub threads: usize,
    /// Run the fact-inference tier (`core::infer`) before classification:
    /// `infer:` rules forward-chain over a working memory seeded from the
    /// product's attributes and the `ie` extractors, and derived facts are
    /// appended to the product as attributes every downstream stage sees.
    /// Also attaches the pipeline's streaming [`AggregateStore`] so
    /// expression rules can reference `agg("...")`. With no infer rules
    /// loaded the tier is inert; with the flag off, classification is
    /// bit-identical to the pre-inference pipeline (the differential suite
    /// asserts both).
    pub infer_enabled: bool,
    /// Seed for QA sampling.
    pub seed: u64,
}

impl Default for ChimeraConfig {
    fn default() -> Self {
        ChimeraConfig { threads: 4, infer_enabled: true, seed: 0 }
    }
}

/// Report for one processed batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Batch sequence number.
    pub seq: usize,
    /// QA rounds run (1 = accepted first try).
    pub rounds: usize,
    /// Whether the batch was accepted (estimate met the gate) or shipped at
    /// `MAX_REDOS` reruns with the gate still unmet.
    pub accepted: bool,
    /// The crowd's final precision estimate.
    pub estimate: PrecisionEstimate,
    /// Oracle-side metrics of the final decisions.
    pub oracle: OracleMetrics,
    /// Rules the Analysis stage added while processing this batch.
    pub rules_added: usize,
    /// Types whose drift alarms fired during QA.
    pub alarms: Vec<TypeId>,
}

/// The Chimera pipeline.
pub struct Chimera {
    taxonomy: Arc<Taxonomy>,
    cfg: ChimeraConfig,
    /// Gate Keeper rules (can classify an item outright).
    pub gate_rules: Arc<RuleRepository>,
    /// Main rule store: whitelist/blacklist + attribute/value rules.
    pub rules: Arc<RuleRepository>,
    parser: RuleParser,
    featurizer: Featurizer,
    ensemble: Option<Arc<Ensemble>>,
    training: TrainingSet,
    suppressed: HashSet<TypeId>,
    monitor: DriftMonitor,
    /// Scale a type down automatically when its drift alarm fires.
    auto_scale_down: bool,
    /// Whether the Analysis stage is staffed: when false, flagged and
    /// declined items are NOT turned into rules/training data (the §2.2
    /// scenario where first responders are unavailable).
    analysis_enabled: bool,
    analysis: SimulatedAnalysis,
    cache: Mutex<Option<CompiledRules>>,
    obs: Arc<PipelineMetrics>,
    /// Streaming aggregates fed by the QA loop (vendor mismatch rate,
    /// decline rate) and readable from `agg("...")` expressions.
    aggregates: Arc<AggregateStore>,
    /// Lazily-built `ie` extraction pipeline; seeds inference working
    /// memory with `ie_<field>` facts. Built on first use so pipelines
    /// without infer rules never pay for it.
    ie: Mutex<Option<Arc<IePipeline>>>,
    rng: StdRng,
}

impl Chimera {
    /// A fresh pipeline over `taxonomy`, with its own metrics registry
    /// ([`Chimera::metrics`]); a server shares that registry with the
    /// serving tier and the store, so one scrape covers them all.
    pub fn new(taxonomy: Arc<Taxonomy>, cfg: ChimeraConfig) -> Chimera {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let monitor = DriftMonitor::new(MONITOR_WINDOW, MONITOR_MIN_SAMPLES, PRECISION_THRESHOLD);
        let obs = PipelineMetrics::register(Arc::new(Registry::new()));
        Chimera {
            parser: RuleParser::new(taxonomy.clone()),
            analysis: SimulatedAnalysis::new(taxonomy.clone()),
            taxonomy,
            cfg,
            gate_rules: RuleRepository::new(),
            rules: RuleRepository::new(),
            featurizer: Featurizer::new(),
            ensemble: None,
            training: TrainingSet::default(),
            suppressed: HashSet::new(),
            monitor,
            auto_scale_down: false,
            analysis_enabled: true,
            cache: Mutex::new(None),
            obs,
            aggregates: Arc::new(AggregateStore::new()),
            ie: Mutex::new(None),
            rng,
        }
    }

    /// The pipeline's streaming-aggregate store. Fed continuously by the
    /// QA loop (`vendor_mismatch_rate`, `decline_rate`); callers may feed
    /// additional series and expression rules read any of them via
    /// `agg("name")`.
    pub fn aggregates(&self) -> &Arc<AggregateStore> {
        &self.aggregates
    }

    /// The pipeline's metric handles (stage latencies, decision counters,
    /// the engine's candidate accounting) and the registry they live in.
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.obs
    }

    /// The taxonomy.
    pub fn taxonomy(&self) -> &Arc<Taxonomy> {
        &self.taxonomy
    }

    /// The DSL parser, with whatever dictionaries have been registered —
    /// cloneable, so a durability layer can re-parse persisted rule sources
    /// with the same name resolution this pipeline uses.
    pub fn parser(&self) -> &RuleParser {
        &self.parser
    }

    /// Access to the DSL parser (to register dictionaries).
    pub fn parser_mut(&mut self) -> &mut RuleParser {
        &mut self.parser
    }

    /// Adds rules (DSL text, one per line) to the main rule store.
    pub fn add_rules(&self, text: &str) -> Result<Vec<RuleId>, ParseError> {
        let specs = self.parser.parse_rules(text)?;
        Ok(self.rules.add_all(specs, &RuleMeta::default()))
    }

    /// Adds Gate Keeper rules.
    pub fn add_gate_rules(&self, text: &str) -> Result<Vec<RuleId>, ParseError> {
        let specs = self.parser.parse_rules(text)?;
        Ok(self.gate_rules.add_all(specs, &RuleMeta::default()))
    }

    /// Trains the learning ensemble on labeled items.
    pub fn train(&mut self, items: &[GeneratedItem]) {
        for item in items {
            self.remember(&item.product, item.truth);
        }
        self.retrain();
    }

    /// Adds one labeled product to the training set. The bag lives as long
    /// as the pipeline, so it sheds the spare capacity the attribute pushes
    /// in `features` left behind (2.7 MB over 20,000 items).
    fn remember(&mut self, product: &Product, label: TypeId) {
        let mut features = self.featurizer.features(product);
        features.shrink_to_fit();
        self.training.docs.push((features, label));
    }

    fn retrain(&mut self) {
        if self.training.is_empty() {
            self.ensemble = None;
        } else {
            self.ensemble = Some(Arc::new(default_ensemble(&self.training, ENSEMBLE_CONFIDENCE)));
        }
    }

    /// Current drift monitor (read access for experiments).
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// Toggles automatic scale-down on drift alarms.
    pub fn set_auto_scale_down(&mut self, on: bool) {
        self.auto_scale_down = on;
    }

    /// Toggles the Analysis stage (analyst availability, §2.2).
    pub fn set_analysis_enabled(&mut self, on: bool) {
        self.analysis_enabled = on;
    }

    /// Types currently suppressed (scaled down).
    pub fn suppressed_types(&self) -> Vec<TypeId> {
        let mut v: Vec<TypeId> = self.suppressed.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Scales a type down: its predictions are declined and its rules
    /// disabled ("disabling the 'bad parts' of the currently deployed
    /// system", §2.2).
    pub fn scale_down(&mut self, ty: TypeId, reason: &str) -> Vec<RuleId> {
        self.suppressed.insert(ty);
        self.rules.disable_type(ty, reason)
    }

    /// Restores a scaled-down type after repair.
    pub fn restore(&mut self, ty: TypeId) -> Vec<RuleId> {
        self.suppressed.remove(&ty);
        self.monitor.reset(ty);
        self.rules.enable_type(ty)
    }

    /// Builds the engine over shared entries, recording into the pipeline's
    /// executor metrics.
    fn compile(&self, entries: Vec<Arc<RuleEntry>>) -> Arc<RuleClassifier> {
        let engine =
            LiteralScanExecutor::from_entries(entries).with_metrics(Some(self.obs.exec.clone()));
        Arc::new(RuleClassifier::over(Arc::new(engine)))
    }

    /// The rule side compiled at the repositories' current state, rebuilt
    /// only when either store's change signal moved. A rebuild copies entry
    /// pointers — each rule's compiled form is shared with every earlier
    /// build — and builds the literal indexes.
    fn compiled(&self) -> CompiledRules {
        let mut cache = self.cache.lock();
        // Read before the entries: a change in between leaves the build
        // keyed to the older count, so the next call rebuilds.
        let changes = [self.gate_rules.changes(), self.rules.changes()];
        if let Some(c) = cache.as_ref().filter(|c| c.changes == changes) {
            return c.clone();
        }
        // Each store's revision and entries come from one read lock, so the
        // build is labelled with exactly the revision its rules are at.
        let (gate_rev, gate_entries) = self.gate_rules.versioned_entries();
        let (rule_rev, rule_entries) = self.rules.versioned_entries();
        // `infer:` rules are evaluated by the forward-chaining tier, never
        // by the classification phases: partition them out of both
        // snapshots.
        let is_infer = |e: &Arc<RuleEntry>| matches!(e.rule().action, RuleAction::Infer(_));
        let (mut infer_entries, gate_entries): (Vec<_>, Vec<_>) =
            gate_entries.into_iter().partition(is_infer);
        let (main_infer, rule_entries): (Vec<_>, Vec<_>) =
            rule_entries.into_iter().partition(is_infer);
        infer_entries.extend(main_infer);
        let infer = Arc::new(InferenceEngine::from_entries(infer_entries));
        let infer_active = self.cfg.infer_enabled && !infer.is_empty();
        let compiled = CompiledRules {
            changes,
            gate_rev,
            rule_rev,
            gate: self.compile(gate_entries),
            rules: self.compile(rule_entries),
            infer,
            ie: infer_active.then(|| self.ie_pipeline()),
        };
        *cache = Some(compiled.clone());
        compiled
    }

    /// The lazily-built `ie` extraction pipeline (kept across rule
    /// revisions).
    fn ie_pipeline(&self) -> Arc<IePipeline> {
        let mut slot = self.ie.lock();
        slot.get_or_insert_with(|| Arc::new(IePipeline::standard(&self.taxonomy))).clone()
    }

    /// The live pipeline's stages, borrowed for classification.
    fn stages<'a>(&'a self, compiled: &'a CompiledRules) -> Stages<'a> {
        Stages {
            compiled,
            aggregates: self.cfg.infer_enabled.then_some(&self.aggregates),
            ensemble: self.ensemble.as_deref(),
            featurizer: &self.featurizer,
            suppressed: &self.suppressed,
            obs: &self.obs,
        }
    }

    /// Captures an immutable, `Send + Sync` snapshot of the current
    /// classification state (compiled gate + rule classifiers, ensemble,
    /// suppression set, metric handles) for lock-free
    /// serving. See [`crate::snapshot::PipelineSnapshot`].
    pub fn snapshot(&self) -> crate::snapshot::PipelineSnapshot {
        crate::snapshot::PipelineSnapshot {
            compiled: self.compiled(),
            aggregates: self.cfg.infer_enabled.then(|| self.aggregates.clone()),
            ensemble: self.ensemble.clone(),
            featurizer: self.featurizer.clone(),
            suppressed: Arc::new(self.suppressed.clone()),
            obs: self.obs.clone(),
        }
    }

    /// Classifies one product (Figure 2 left-to-right).
    pub fn classify(&self, product: &Product) -> Decision {
        self.stages(&self.compiled()).classify(product).0
    }

    /// Classifies a slice of products on up to `cfg.threads` scoped threads
    /// ([`map_chunks`]), in input order.
    pub fn classify_batch(&self, products: &[Product]) -> Vec<Decision> {
        let compiled = self.compiled();
        let stages = self.stages(&compiled);
        map_chunks(products, self.cfg.threads, |chunk| {
            chunk.iter().map(|p| stages.classify(p).0).collect()
        })
    }

    /// Runs the full Figure 2 loop on one batch: classify → crowd-sample →
    /// gate → (analysis patch → rerun)*.
    pub fn process_batch(&mut self, batch: &Batch, crowd: &mut CrowdSim) -> BatchReport {
        self.obs.batches.inc();
        let products: Vec<Product> = batch.items.iter().map(|i| i.product.clone()).collect();
        let truths: Vec<TypeId> = batch.items.iter().map(|i| i.truth).collect();

        let mut rounds = 0usize;
        let mut rules_added = 0usize;
        let mut alarms: Vec<TypeId> = Vec::new();
        let mut estimate = PrecisionEstimate::new();
        let mut decisions: Vec<Decision> = Vec::new();
        let mut accepted = false;

        while rounds <= MAX_REDOS {
            rounds += 1;
            decisions = self.classify_batch(&products);

            // Crowd QA over a sample of *classified* results.
            let mut classified_idx: Vec<usize> = decisions
                .iter()
                .enumerate()
                .filter(|(_, d)| !d.is_declined())
                .map(|(i, _)| i)
                .collect();
            classified_idx.shuffle(&mut self.rng);
            classified_idx.truncate(QA_SAMPLE_SIZE);

            estimate = PrecisionEstimate::new();
            let mut flagged: Vec<(GeneratedItem, Option<TypeId>)> = Vec::new();
            for &i in &classified_idx {
                let predicted = decisions[i].type_id().expect("sampled from classified");
                let verdict = match crowd.verify(truths[i], predicted) {
                    Ok(v) => v,
                    Err(_) => break, // budget exhausted: stop sampling
                };
                estimate.record(verdict.accepted);
                // Feed the streaming aggregates: rules can gate on
                // `agg("vendor_mismatch_rate")` from the next item on.
                self.aggregates.ratio("vendor_mismatch_rate").record(!verdict.accepted);
                if let Some(alarm) = self.monitor.record(predicted, verdict.accepted) {
                    alarms.push(alarm.ty);
                    if self.auto_scale_down {
                        self.scale_down(alarm.ty, "drift alarm");
                    }
                }
                if !verdict.accepted {
                    flagged.push((batch.items[i].clone(), Some(predicted)));
                }
            }

            // Declined items go to the manual-classification team, and the
            // analysts mine them for rules and training data (§3.3: "If the
            // Voting Master refuses to make a prediction … the analysts
            // examine such items, then create rules and training data").
            let mut declined_idx: Vec<usize> = decisions
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_declined())
                .map(|(i, _)| i)
                .collect();
            declined_idx.shuffle(&mut self.rng);
            declined_idx.truncate(QA_SAMPLE_SIZE / 2);
            for &i in &declined_idx {
                flagged.push((batch.items[i].clone(), None));
            }

            // Analysis stage: rules + relabeled training data. This runs
            // even for accepted batches (declined items are worked
            // continuously); reruns happen only when the gate was missed.
            if !self.analysis_enabled {
                flagged.clear();
            }
            let span = SpanTimer::start(&self.obs.stage_analysis);
            let outcome = self.analysis.patch(&flagged, &self.rules);
            span.finish();
            rules_added += outcome.rules_added.len();
            if !outcome.relabeled.is_empty() {
                for (item, ty) in &outcome.relabeled {
                    self.remember(&item.product, *ty);
                }
                self.retrain();
            }

            if estimate.meets(PRECISION_THRESHOLD) {
                accepted = true;
                break;
            }
            if rounds > MAX_REDOS {
                break;
            }
            if outcome.rules_added.is_empty() && outcome.relabeled.is_empty() {
                break; // nothing to improve; avoid a futile rerun
            }
        }

        alarms.sort_unstable();
        alarms.dedup();
        BatchReport {
            seq: batch.seq,
            rounds,
            accepted,
            estimate,
            oracle: OracleMetrics::score(&decisions, &truths),
            rules_added,
            alarms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulekit_crowd::CrowdConfig;
    use rulekit_data::{CatalogGenerator, LabeledCorpus, VendorPool, VendorProfile};

    fn perfect_crowd() -> CrowdSim {
        CrowdSim::new(CrowdConfig { accuracy_range: (1.0, 1.0), ..Default::default() })
    }

    fn trained_chimera(seed: u64) -> (Chimera, CatalogGenerator) {
        let tax = Taxonomy::builtin();
        let mut g = CatalogGenerator::with_seed(tax.clone(), seed);
        let mut chimera = Chimera::new(tax, ChimeraConfig { threads: 2, ..Default::default() });
        let corpus = LabeledCorpus::generate(&mut g, 3000);
        chimera.train(corpus.items());
        chimera
            .add_rules("rings? -> rings\nattr(ISBN) -> books\nlaptop (bag|case|sleeve)s? -> NOT laptop computers\n")
            .unwrap();
        (chimera, g)
    }

    #[test]
    fn classify_uses_rules_and_learning() {
        let (chimera, mut g) = trained_chimera(51);
        let tax = chimera.taxonomy().clone();
        let rings = tax.id_of("rings").unwrap();
        let mut correct = 0;
        for _ in 0..30 {
            let item = g.generate_for_type(rings);
            if chimera.classify(&item.product).type_id() == Some(rings) {
                correct += 1;
            }
        }
        assert!(correct >= 27, "only {correct}/30 rings classified");
    }

    #[test]
    fn gate_keeper_short_circuits() {
        let (chimera, mut g) = trained_chimera(52);
        let tax = chimera.taxonomy().clone();
        chimera.add_gate_rules("attr(ISBN) -> books").unwrap();
        let books = tax.id_of("books").unwrap();
        let item = g.generate_for_type(books);
        let d = chimera.classify(&item.product);
        let Decision::Classified { ty, explanation, .. } = d else { panic!("expected classified") };
        assert_eq!(ty, books);
        assert!(explanation[0].contains("gate keeper"));
    }

    #[test]
    fn untrained_unruled_chimera_declines() {
        let tax = Taxonomy::builtin();
        let mut g = CatalogGenerator::with_seed(tax.clone(), 53);
        let chimera = Chimera::new(tax, ChimeraConfig::default());
        let item = g.generate_one();
        assert!(chimera.classify(&item.product).is_declined());
    }

    #[test]
    fn scale_down_declines_type_and_restore_recovers() {
        let (mut chimera, mut g) = trained_chimera(54);
        let tax = chimera.taxonomy().clone();
        let rings = tax.id_of("rings").unwrap();
        let item = g.generate_for_type(rings);
        assert_eq!(chimera.classify(&item.product).type_id(), Some(rings));
        chimera.scale_down(rings, "test");
        assert!(chimera.classify(&item.product).type_id() != Some(rings));
        assert_eq!(chimera.suppressed_types(), vec![rings]);
        chimera.restore(rings);
        assert_eq!(chimera.classify(&item.product).type_id(), Some(rings));
    }

    #[test]
    fn expression_rules_classify_and_cache_across_rebuilds() {
        let (chimera, mut g) = trained_chimera(60);
        let tax = chimera.taxonomy().clone();
        let books = tax.id_of("books").unwrap();
        let line = "rule: has(ISBN) && vendor >= 0 => books";
        chimera.add_gate_rules(line).unwrap();
        let item = g.generate_for_type(books);
        assert_eq!(chimera.classify(&item.product).type_id(), Some(books));
        let before = chimera.parser().expr_cache().stats();
        assert_eq!(before.misses, 1);

        // Re-submitting the same source forces a classifier rebuild (new
        // repository revision) but reuses the compiled bytecode: the second
        // parse is a cache hit, not a second lex/parse/compile.
        chimera.add_gate_rules(line).unwrap();
        assert_eq!(chimera.classify(&item.product).type_id(), Some(books));
        let after = chimera.parser().expr_cache().stats();
        assert_eq!(after.misses, before.misses, "rebuild recompiled the expression");
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn pipeline_records_stage_metrics() {
        let (chimera, mut g) = trained_chimera(59);
        let products: Vec<Product> = g.generate(80).into_iter().map(|i| i.product).collect();
        let decisions = chimera.classify_batch(&products);

        let snap = chimera.metrics().registry().snapshot();
        let stage = |s: &str| {
            snap.histogram(&format!("rulekit_chimera_stage_nanos{{stage=\"{s}\"}}"))
                .unwrap_or_else(|| panic!("stage {s} registered"))
        };
        // Every product passes the gate; only non-short-circuited ones vote.
        assert_eq!(stage("gate").count(), 80);
        let shorts = snap.counter("rulekit_chimera_gate_shortcircuits_total").unwrap();
        assert_eq!(stage("vote").count() + shorts, 80);
        assert_eq!(stage("rules").count(), stage("vote").count());
        assert_eq!(snap.counter("rulekit_chimera_decisions_total"), Some(80));
        let declined = decisions.iter().filter(|d| d.is_declined()).count() as u64;
        assert_eq!(snap.counter("rulekit_chimera_declined_total"), Some(declined));

        // Executor candidate accounting flows from the compiled classifiers:
        // gate classify + rules classify both record, so the per-product
        // count is at least the number of gate passes.
        let exec = &chimera.metrics().exec;
        assert!(exec.products.value() >= 80, "exec products {}", exec.products.value());
        assert_eq!(exec.candidates.count(), exec.products.value());

        // The text exposition names every stage and renders quantiles.
        let text = chimera.metrics().registry().render_text();
        for s in ["gate", "rules", "learn", "vote"] {
            assert!(text.contains(&format!("stage=\"{s}\"")), "missing stage {s} in:\n{text}");
        }
        assert!(text.contains("quantile=\"0.99\""), "no quantiles in:\n{text}");
    }

    #[test]
    fn batch_parallel_equals_sequential() {
        let (mut chimera, mut g) = trained_chimera(55);
        let products: Vec<Product> = g.generate(201).into_iter().map(|i| i.product).collect();
        let sequential: Vec<Decision> = products.iter().map(|p| chimera.classify(p)).collect();
        // Around the serial cutoff, a length no width divides, and more
        // threads than the host has cores.
        for len in [0, 1, 63, 64, 65, 201] {
            for threads in [1, 2, 3, 8] {
                chimera.cfg.threads = threads;
                let batch = chimera.classify_batch(&products[..len]);
                assert_eq!(batch, sequential[..len], "len {len}, threads {threads}");
            }
        }
    }

    #[test]
    fn restore_at_a_seen_revision_rebuilds() {
        let tax = Taxonomy::builtin();
        let sofas = tax.id_of("sofas").unwrap();
        let ring = Product {
            id: 0,
            title: "diamond ring".into(),
            description: String::new(),
            attributes: Vec::new(),
            vendor: rulekit_data::VendorId(0),
        };
        let chimera = Chimera::new(tax.clone(), ChimeraConfig::default());
        chimera.add_rules("rings? -> rings\n").unwrap();
        let other = Chimera::new(tax, ChimeraConfig::default());
        other.add_rules("rings? -> sofas\n").unwrap();
        assert_ne!(chimera.classify(&ring).type_id(), Some(sofas));

        // Different rules installed at the revision the cache already saw.
        let revision = chimera.rules.revision();
        chimera.rules.restore(other.rules.full_snapshot(), other.rules.next_rule_id(), revision);
        assert_eq!(chimera.classify(&ring).type_id(), Some(sofas));
    }

    #[test]
    fn process_batch_accepts_healthy_stream() {
        let (mut chimera, _) = trained_chimera(56);
        let tax = chimera.taxonomy().clone();
        let generator = CatalogGenerator::with_seed(tax, 560);
        let vendors = VendorPool::generate(5, 0.0, 1);
        let mut stream = rulekit_data::BatchStream::new(
            generator,
            vendors,
            rulekit_data::StreamConfig { min_batch: 300, max_batch: 400, ..Default::default() },
        );
        let batch = stream.next_batch();
        let mut crowd = perfect_crowd();
        let report = chimera.process_batch(&batch, &mut crowd);
        assert!(report.accepted, "estimate {:?}", report.estimate);
        assert!(report.oracle.precision() >= 0.9, "oracle {:?}", report.oracle);
    }

    #[test]
    fn process_batch_patches_novel_vocabulary() {
        let (mut chimera, _) = trained_chimera(57);
        let tax = chimera.taxonomy().clone();
        let mut g = CatalogGenerator::with_seed(tax.clone(), 570);
        let sofas = tax.id_of("sofas").unwrap();
        let vendor = VendorProfile::novel_vocabulary(7);
        let items: Vec<GeneratedItem> =
            (0..300).map(|_| g.generate_for_type_and_vendor(sofas, &vendor)).collect();
        let batch = Batch { seq: 0, vendor: vendor.clone(), items };
        let before = chimera.rules.len();
        let mut crowd = perfect_crowd();
        let report = chimera.process_batch(&batch, &mut crowd);
        // Either the batch needed no help (unlikely) or analysis added rules
        // and recall improved by the final round.
        assert!(report.rounds >= 1);
        if report.rules_added > 0 {
            assert!(chimera.rules.len() > before);
            // The "couch" patch rule now classifies novel titles.
            let item = g.generate_for_type_and_vendor(sofas, &vendor);
            assert_eq!(chimera.classify(&item.product).type_id(), Some(sofas));
        }
    }
}
