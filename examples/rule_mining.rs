//! The §5.2 rule generator: mine frequent token sequences from labeled
//! titles, select with Greedy-Biased, and install the result as a rule
//! module.
//!
//! ```text
//! cargo run --release --example rule_mining
//! ```

use rulekit::core::{LiteralScanExecutor, Provenance, RuleClassifier, RuleMeta, RuleRepository};
use rulekit::data::{CatalogGenerator, LabeledCorpus, Taxonomy};
use rulekit::gen::{generate_rules, MiningConfig, RuleGenConfig, Tier};
use std::sync::Arc;

fn main() {
    let taxonomy = Taxonomy::builtin();
    let mut generator = CatalogGenerator::with_seed(taxonomy.clone(), 33);
    // Analyst/crowd-labeled data with uniform type coverage (§5.2's use
    // case: types learning cannot handle yet).
    generator.set_type_weights(&vec![1.0; taxonomy.len()]);
    let corpus = LabeledCorpus::generate(&mut generator, 8_000);

    let cfg = RuleGenConfig {
        mining: MiningConfig { min_support: 0.03, min_len: 2, max_len: 4 },
        q_per_type: 50,
        alpha: 0.7,
        min_titles_per_type: 25,
        ..RuleGenConfig::default()
    };
    let report = generate_rules(&corpus, &taxonomy, &cfg);
    println!(
        "mined {} candidate sequences over {} types; selected {} high- and {} low-confidence rules",
        report.mined_candidates, report.types_processed, report.selected_high, report.selected_low
    );

    println!("\nsample generated rules:");
    for rule in report.rules.iter().take(12) {
        println!(
            "  [{}] {:<45} -> {:<22} (conf {:.2}, support {:.3})",
            match rule.tier {
                Tier::High => "high",
                Tier::Low => "low ",
            },
            rule.pattern,
            taxonomy.name(rule.type_id),
            rule.confidence,
            rule.support,
        );
    }

    // Install as a rule-based module and classify fresh items with it alone.
    let repo = RuleRepository::new();
    for rule in &report.rules {
        let meta = RuleMeta {
            provenance: Provenance::Mined,
            confidence: rule.confidence,
            ..Default::default()
        };
        repo.add(rule.to_spec(&taxonomy), meta);
    }
    let rules = repo.enabled_snapshot();
    let classifier = RuleClassifier::new(Arc::new(LiteralScanExecutor::new(rules.clone())), rules);

    let eval = generator.generate(2_000);
    let mut classified = 0;
    let mut correct = 0;
    for item in &eval {
        if let Some((ty, _)) = classifier.classify(&item.product).top() {
            classified += 1;
            correct += usize::from(ty == item.truth);
        }
    }
    println!(
        "\nrule-module-only classification of {} fresh items: {} classified, precision {:.1}%",
        eval.len(),
        classified,
        100.0 * correct as f64 / classified.max(1) as f64
    );
    println!("(the paper added exactly such a module and cut declined items by 18%)");
}
