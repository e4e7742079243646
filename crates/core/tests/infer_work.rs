//! Work guard for fact inference: a chaining round considers the fact rules
//! working memory can admit, not every fact rule.
//!
//! `n` rules of the form `has(a_i) => fact f_i = 1` chain over a product
//! that carries three of those attributes. Round 1 derives three facts;
//! round 2 finds the fixpoint. Each round must consider 3 rules whatever
//! `n` is. The counts come from `InferenceEngine::infer_counted`, so they are
//! the same on any host;
//! `cargo test -p rulekit-core --release --test infer_work -- --nocapture`
//! prints the table.

use rulekit_core::{InferenceEngine, Rule, RuleId, RuleMeta, RuleParser};
use rulekit_data::{Product, Taxonomy, VendorId};

fn fact_rules(n: usize) -> Vec<Rule> {
    let parser = RuleParser::new(Taxonomy::builtin());
    (0..n)
        .map(|i| {
            let spec = parser.parse_rule(&format!("infer: has(a_{i}) => fact f_{i} = 1")).unwrap();
            Rule {
                id: RuleId(i as u64),
                condition: spec.condition,
                action: spec.action,
                meta: RuleMeta::default(),
                source: spec.source,
            }
        })
        .collect()
}

#[test]
fn a_round_considers_only_the_admitted_fact_rules() {
    let carried = [3usize, 7, 9];
    let product = Product {
        id: 0,
        title: "generated".into(),
        description: String::new(),
        attributes: carried.iter().map(|i| (format!("a_{i}"), "x".to_string())).collect(),
        vendor: VendorId(0),
    };
    println!("fact rules | rounds | facts | considered per round");
    for n in [10, 100, 1_000] {
        let engine = InferenceEngine::from_rules(&fact_rules(n));
        let (outcome, considered) = engine.infer_counted(&product, &[], None);
        println!("{n:>10} | {:>6} | {:>5} | {considered:?}", outcome.rounds, outcome.facts.len());
        let derived: Vec<&str> = outcome.facts.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(derived, ["f_3", "f_7", "f_9"], "{n} rules");
        assert_eq!(outcome.rounds, 1, "{n} rules");
        assert_eq!(considered, [3, 3], "{n} rules: round 1 derives, round 2 is the fixpoint");
    }
}
