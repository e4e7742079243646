//! Integration: the full rule lifecycle across crates — generate (§5.2),
//! evaluate (§4), maintain (§4) — against one shared corpus.

use rulekit::core::{
    LiteralScanExecutor, Provenance, RuleMeta, RuleParser, RuleRepository, TitleIndex,
};
use rulekit::crowd::{CrowdConfig, CrowdSim};
use rulekit::data::{CatalogGenerator, LabeledCorpus, Taxonomy};
use rulekit::eval::{compute_coverages, per_rule_eval};
use rulekit::gen::{generate_rules, MiningConfig, RuleGenConfig};
use rulekit::maint::{find_imprecise, find_subsumptions, quarantine_imprecise};

#[test]
fn mined_rules_survive_evaluation_and_maintenance() {
    let taxonomy = Taxonomy::builtin();
    let mut generator = CatalogGenerator::with_seed(taxonomy.clone(), 301);
    generator.set_type_weights(&vec![1.0; taxonomy.len()]);
    let train = LabeledCorpus::generate(&mut generator, 5_000);
    let eval_corpus = LabeledCorpus::generate(&mut generator, 3_000);

    // Generate (§5.2).
    let cfg = RuleGenConfig {
        mining: MiningConfig { min_support: 0.05, min_len: 2, max_len: 4 },
        q_per_type: 30,
        min_titles_per_type: 25,
        ..RuleGenConfig::default()
    };
    let report = generate_rules(&train, &taxonomy, &cfg);
    assert!(report.types_processed >= 50, "only {} types processed", report.types_processed);
    assert!(!report.rules.is_empty());

    // Install.
    let repo = RuleRepository::new();
    for r in &report.rules {
        let meta = RuleMeta {
            provenance: Provenance::Mined,
            confidence: r.confidence,
            ..Default::default()
        };
        repo.add(r.to_spec(&taxonomy), meta);
    }
    let rules = repo.enabled_snapshot();

    // Evaluate (§4 Method 2 with overlap exploitation).
    let executor = LiteralScanExecutor::new(rules.clone());
    let coverages = compute_coverages(&rules, &executor, eval_corpus.items());
    let mut crowd = CrowdSim::new(CrowdConfig { seed: 302, ..Default::default() });
    let eval = per_rule_eval(&coverages, eval_corpus.items(), 8, true, &mut crowd, 303);

    // Zero-training-error rules should mostly hold up out of sample: the
    // median estimated precision stays high.
    let mut precisions: Vec<f64> =
        eval.estimates.values().filter(|e| e.samples >= 5).map(|e| e.precision()).collect();
    precisions.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(!precisions.is_empty());
    let median = precisions[precisions.len() / 2];
    assert!(median >= 0.9, "median mined-rule precision {median}");

    // Maintain: quarantine whatever slipped through.
    let flagged = find_imprecise(&eval.estimates, 0.8, 5);
    let disabled = quarantine_imprecise(&repo, &flagged);
    assert_eq!(disabled.len(), flagged.len());
    // The repository reflects the quarantine.
    assert_eq!(repo.enabled_snapshot().len(), rules.len() - disabled.len());
}

#[test]
fn duplicate_analyst_rules_are_caught_by_subsumption() {
    let taxonomy = Taxonomy::builtin();
    let parser = RuleParser::new(taxonomy.clone());
    let repo = RuleRepository::new();
    // Two analysts independently adding overlapping jean rules (§4).
    for line in ["denim.*jeans? -> jeans", "jeans? -> jeans", "relaxed fit.*jeans? -> jeans"] {
        repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
    }
    let mut generator = CatalogGenerator::with_seed(taxonomy, 311);
    let items = generator.generate(2_000);
    let index = TitleIndex::build(items.iter().map(|i| i.product.title.as_str()));

    let subs = find_subsumptions(&repo.enabled_snapshot(), Some(&index), 2);
    // Both specialized rules are subsumed by the bare `jeans?` rule.
    let bare = repo
        .full_snapshot()
        .into_iter()
        .find(|r| r.condition.to_string() == "title(jeans?)")
        .unwrap();
    let subsumed_by_bare = subs.iter().filter(|s| s.by == bare.id).count();
    assert_eq!(subsumed_by_bare, 2, "subsumptions found: {subs:?}");

    // Removing them leaves a single-rule module with identical behaviour.
    for s in &subs {
        repo.remove(s.subsumed, "subsumed");
    }
    let remaining = repo.enabled_snapshot();
    assert_eq!(remaining.len(), 1);
    for item in &items {
        let before = bare.matches(&item.product);
        let after = remaining[0].matches(&item.product);
        assert_eq!(before, after);
    }
}

#[test]
fn impact_tracker_flags_rules_that_grow_hot() {
    use rulekit::eval::ImpactTracker;
    let taxonomy = Taxonomy::builtin();
    let parser = RuleParser::new(taxonomy.clone());
    let repo = RuleRepository::new();
    let tail_rule = repo.add(
        parser.parse_rule("zirconia fiber -> abrasive wheels & discs").unwrap(),
        RuleMeta::default(),
    );
    let rules = repo.enabled_snapshot();

    let mut generator = CatalogGenerator::with_seed(taxonomy.clone(), 321);
    let mut tracker = ImpactTracker::new(10);

    // On a Zipf stream the tail rule stays cold…
    for item in generator.generate(500) {
        for rule in &rules {
            if rule.matches(&item.product) {
                tracker.record_touch(rule.id);
            }
        }
    }
    assert!(tracker.pending_alerts().is_empty());

    // …until the distribution shifts toward its type (§5.3's scenario).
    let abrasive = taxonomy.id_of("abrasive wheels & discs").unwrap();
    let mut alerted = false;
    for item in generator.generate_n_for_type(abrasive, 400) {
        for rule in &rules {
            if rule.matches(&item.product) && tracker.record_touch(rule.id) {
                alerted = true;
            }
        }
    }
    assert!(alerted, "tail rule never became impactful");
    assert_eq!(tracker.pending_alerts(), vec![tail_rule]);
}
