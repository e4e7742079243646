//! E3 (§5.2 rule generation pipeline) and E15 (selection-algorithm
//! ablation).

use crate::setup::{world, Scale};
use crate::table::{f3, pct, Table};
use rulekit_chimera::{Chimera, ChimeraConfig, OracleMetrics};
use rulekit_core::{LiteralScanExecutor, Provenance, RuleMeta, RuleRepository};
use rulekit_crowd::{CrowdConfig, CrowdSim};
use rulekit_data::{LabeledCorpus, TypeId};
use rulekit_eval::compute_coverages;
use rulekit_gen::{
    confidence, contains_sequence, generate_rules, greedy, greedy_biased, mine_sequences,
    tokenize_titles, CandidateRule, ConfidenceWeights, MiningConfig, RuleGenConfig, Tier,
};
use std::collections::HashSet;

fn rulegen_config() -> RuleGenConfig {
    RuleGenConfig {
        // Laptop-scale corpora need a higher floor than the paper's 0.001.
        mining: MiningConfig { min_support: 0.02, min_len: 2, max_len: 4 },
        q_per_type: 500,
        alpha: 0.7,
        min_titles_per_type: 20,
        ..RuleGenConfig::default()
    }
}

/// E3 — the full §5.2 pipeline with crowd-estimated tier precision and the
/// decline-reduction measurement.
pub fn e3(scale: Scale) {
    println!("\n=== E3: rule generation from labeled data (§5.2) ===");
    let (taxonomy, mut generator) = world(scale);
    // The mining corpus is analyst/crowd-labeled with deliberate coverage of
    // every type — §5.2's motivating case is exactly the types learning has
    // no training data for ("the analyst … can start labeling some training
    // data for t, or ask the crowd").
    generator.set_type_weights(&vec![1.0; taxonomy.len()]);
    let train = LabeledCorpus::generate(&mut generator, scale.train_items);
    let report = generate_rules(&train, &taxonomy, &rulegen_config());

    let mut stages = Table::new(&["stage", "paper (885K items)", "measured"]);
    stages.row(vec!["labeled items".into(), "885K".into(), report.titles.to_string()]);
    stages.row(vec!["types covered".into(), "3,707".into(), report.types_processed.to_string()]);
    stages.row(vec!["mined candidates".into(), "874K".into(), report.mined_candidates.to_string()]);
    stages.row(vec![
        "after error filter".into(),
        "—".into(),
        report.after_error_filter.to_string(),
    ]);
    stages.row(vec![
        "selected high-confidence".into(),
        "63K".into(),
        report.selected_high.to_string(),
    ]);
    stages.row(vec![
        "selected low-confidence".into(),
        "37K".into(),
        report.selected_low.to_string(),
    ]);
    stages.print();

    // Crowd-estimated precision per tier on held-out items (paper: 95% / 92%).
    let eval = LabeledCorpus::generate(&mut generator, scale.eval_items);
    let mut crowd = CrowdSim::new(CrowdConfig { seed: scale.seed, ..Default::default() });
    let mut tiers = Table::new(&["tier", "rules", "paper precision", "crowd-estimated", "oracle"]);
    for (tier, label, paper) in
        [(Tier::High, "high confidence", "95%"), (Tier::Low, "low confidence", "92%")]
    {
        let repo = RuleRepository::new();
        for r in report.rules.iter().filter(|r| r.tier == tier) {
            let meta = RuleMeta {
                provenance: Provenance::Mined,
                confidence: r.confidence,
                ..Default::default()
            };
            repo.add(r.to_spec(&taxonomy), meta);
        }
        let rules = repo.enabled_snapshot();
        let executor = LiteralScanExecutor::new(rules.clone());
        let coverages = compute_coverages(&rules, &executor, eval.items());
        let (est, _) =
            rulekit_eval::module_eval(&coverages, eval.items(), 400, &mut crowd, scale.seed);
        // Oracle: micro-precision over all touches.
        let (mut hits, mut total) = (0usize, 0usize);
        for cov in &coverages {
            total += cov.touched.len();
            hits += cov
                .touched
                .iter()
                .filter(|&&i| eval.items()[i as usize].truth == cov.assigns)
                .count();
        }
        let oracle = if total == 0 { 1.0 } else { hits as f64 / total as f64 };
        tiers.row(vec![
            label.into(),
            rules.len().to_string(),
            paper.into(),
            pct(est.precision()),
            pct(oracle),
        ]);
    }
    tiers.print();

    // Decline reduction (paper: 18% fewer declined items at ≥92% precision).
    decline_reduction(scale, &report, &taxonomy, &train);
}

fn decline_reduction(
    scale: Scale,
    report: &rulekit_gen::RuleGenReport,
    taxonomy: &std::sync::Arc<rulekit_data::Taxonomy>,
    train: &LabeledCorpus,
) {
    // Baseline: learning only, trained on the production (Zipf) feed with
    // NO data for the tail 30% of types (§3.3: "for about 30% of product
    // types there was insufficient training data").
    let (_, _, partial) = crate::setup::partial_training_corpus(scale);
    let _ = train;
    let mut baseline =
        Chimera::new(taxonomy.clone(), ChimeraConfig { seed: scale.seed, ..Default::default() });
    baseline.train(partial.items());

    // Uniform eval so the untrained tail types actually arrive.
    let (_, mut generator2) = world(Scale { seed: scale.seed + 99, ..scale });
    generator2.set_type_weights(&vec![1.0; taxonomy.len()]);
    let eval: Vec<_> = generator2.generate(scale.eval_items.min(6000));
    let products: Vec<_> = eval.iter().map(|i| i.product.clone()).collect();
    let truths: Vec<_> = eval.iter().map(|i| i.truth).collect();

    let before = OracleMetrics::score(&baseline.classify_batch(&products), &truths);

    // Add the generated rules (both tiers, as the paper did).
    for r in &report.rules {
        let meta = RuleMeta {
            provenance: Provenance::Mined,
            confidence: r.confidence,
            ..Default::default()
        };
        baseline.rules.add(r.to_spec(taxonomy), meta);
    }
    let after = OracleMetrics::score(&baseline.classify_batch(&products), &truths);

    let declined_before = before.total - before.classified;
    let declined_after = after.total - after.classified;
    let reduction = if declined_before == 0 {
        0.0
    } else {
        1.0 - declined_after as f64 / declined_before as f64
    };
    let mut table = Table::new(&["system", "declined", "precision", "recall"]);
    table.row(vec![
        "learning only (70% of types trained)".into(),
        declined_before.to_string(),
        pct(before.precision()),
        pct(before.recall()),
    ]);
    table.row(vec![
        "+ generated rules".into(),
        declined_after.to_string(),
        pct(after.precision()),
        pct(after.recall()),
    ]);
    table.print();
    println!(
        "decline reduction: {} (paper: 18% reduction while maintaining precision >= 92%)",
        pct(reduction)
    );
}

/// E15 — selection ablation: Greedy vs Greedy-Biased vs top-q-by-support.
pub fn e15(scale: Scale) {
    println!("\n=== E15: rule-selection ablation (§5.2 Algorithms 1 vs 2) ===");
    let (taxonomy, mut generator) = world(scale);
    let train = LabeledCorpus::generate(&mut generator, scale.train_items.min(15_000));
    let eval = LabeledCorpus::generate(&mut generator, scale.eval_items.min(8_000));

    // Build candidates for a handful of well-covered types via public APIs.
    let mut by_count: Vec<(TypeId, usize)> =
        train.by_type().into_iter().map(|(t, v)| (t, v.len())).collect();
    by_count.sort_by_key(|&(t, n)| (std::cmp::Reverse(n), t));
    let targets: Vec<TypeId> = by_count.iter().take(6).map(|&(t, _)| t).collect();

    let eval_titles: Vec<&str> = eval.items().iter().map(|i| i.product.title.as_str()).collect();
    let eval_docs = tokenize_titles(&eval_titles);

    let mut table = Table::new(&["selector", "rules", "train coverage", "eval precision (oracle)"]);
    for (name, selector) in [
        ("Greedy (Alg. 1)", SelKind::Greedy),
        ("Greedy-Biased (Alg. 2)", SelKind::Biased),
        ("top-q by support", SelKind::TopSupport),
    ] {
        let mut total_rules = 0usize;
        let mut covered = 0usize;
        let mut cover_total = 0usize;
        let (mut hits, mut touches) = (0usize, 0usize);
        for &ty in &targets {
            let type_corpus = train.only_type(ty);
            let titles: Vec<&str> =
                type_corpus.items().iter().map(|i| i.product.title.as_str()).collect();
            let docs = tokenize_titles(&titles);
            let mining = MiningConfig { min_support: 0.03, min_len: 2, max_len: 4 };
            let seqs = mine_sequences(&docs, mining);
            let name_tokens = rulekit_text::Tokenizer::new().tokenize(taxonomy.name(ty));
            let candidates: Vec<CandidateRule> = seqs
                .iter()
                .map(|s| {
                    let coverage: Vec<u32> = docs
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| contains_sequence(d, &s.tokens))
                        .map(|(i, _)| i as u32)
                        .collect();
                    CandidateRule {
                        tokens: s.tokens.clone(),
                        coverage,
                        confidence: confidence(
                            &s.tokens,
                            &name_tokens,
                            s.support / (10.0 * mining.min_support),
                            ConfidenceWeights::default(),
                        ),
                    }
                })
                .collect();

            let q = 30;
            let selected: Vec<usize> = match selector {
                SelKind::Greedy => greedy(&candidates, q, &HashSet::new()).selected,
                SelKind::Biased => greedy_biased(&candidates, q, 0.7).0.selected,
                SelKind::TopSupport => {
                    let mut idx: Vec<usize> = (0..candidates.len()).collect();
                    idx.sort_by_key(|&i| std::cmp::Reverse(candidates[i].coverage.len()));
                    idx.truncate(q);
                    idx
                }
            };
            total_rules += selected.len();
            let mut cov: HashSet<u32> = HashSet::new();
            for &i in &selected {
                cov.extend(candidates[i].coverage.iter().copied());
            }
            covered += cov.len();
            cover_total += docs.len();

            // Oracle precision on the eval corpus: how often does a selected
            // sequence touch an item of the right type?
            for &i in &selected {
                for (j, doc) in eval_docs.iter().enumerate() {
                    if contains_sequence(doc, &candidates[i].tokens) {
                        touches += 1;
                        if eval.items()[j].truth == ty {
                            hits += 1;
                        }
                    }
                }
            }
        }
        let precision = if touches == 0 { 1.0 } else { hits as f64 / touches as f64 };
        table.row(vec![
            name.into(),
            total_rules.to_string(),
            format!("{} ({})", covered, pct(covered as f64 / cover_total.max(1) as f64)),
            format!("{} on {} touches", f3(precision), touches),
        ]);
    }
    table.print();
    println!("(Greedy-Biased trades a little coverage for higher-confidence rules — the analysts' preference)");
}

enum SelKind {
    Greedy,
    Biased,
    TopSupport,
}
