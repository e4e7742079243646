//! Differential test: the engine against its oracle.
//!
//! One fixed-seed generated catalog plus a few hundred synthesized rules;
//! `LiteralScanExecutor` must return the fired-rule set `NaiveExecutor`
//! returns on every product. The corpus deliberately includes what an index
//! is tempted to treat specially: rules whose only literals are one or two
//! bytes, rules with non-ASCII literals, products with non-ASCII titles,
//! attribute and dictionary rules, and conjunctive rules with numeric guards.

use rulekit_core::{
    execution_stats, Dictionary, ExecMetrics, ExecutorKind, LiteralScanExecutor, NaiveExecutor,
    RuleExecutor, RuleId, RuleMeta, RuleParser, RuleRepository,
};
use rulekit_data::{CatalogGenerator, Product, Taxonomy, VendorId};
use std::sync::Arc;

fn build_rules(taxonomy: &Arc<Taxonomy>) -> Vec<rulekit_core::Rule> {
    let mut parser = RuleParser::new(taxonomy.clone());
    parser.register_dictionary(Dictionary::new(
        "pc_words",
        ["thinkpad", "ideapad", "chromebook", "überbook"],
    ));
    let repo = RuleRepository::new();

    // A few hundred taxonomy-derived title rules (the realistic bulk).
    let mut lines: Vec<String> = Vec::new();
    for id in taxonomy.ids() {
        let def = taxonomy.def(id);
        let head = def.heads[0].to_lowercase();
        lines.push(format!("{}s? -> {}", rulekit_regex::escape(&head), def.name));
        for q in def.qualifiers.iter().take(2) {
            lines.push(format!(
                "{}.*{}s? -> {}",
                rulekit_regex::escape(&q.to_lowercase()),
                rulekit_regex::escape(&head),
                def.name
            ));
        }
    }
    // Short-literal rules (< 3 bytes), indexed like any other literal.
    lines.push("tvs? -> televisions".into());
    lines.push("pcs? -> desktop computers".into());
    lines.push("4k tvs? -> televisions".into());
    // Non-ASCII literals and titles.
    lines.push("café press(es)? -> coffee makers".into());
    lines.push("überbook pro -> laptop computers".into());
    lines.push("crème brûlée torch(es)? -> tool boxes".into());
    // Attribute / value / numeric / dictionary / conjunctive rules.
    lines.push("attr(ISBN) -> books".into());
    lines.push("value(Brand Name = Apple) -> one of laptop computers; smartphones; tablets".into());
    lines.push("price < 5 -> NOT laptop computers".into());
    lines.push("dict(pc_words) -> one of laptop computers; desktop computers".into());
    lines.push("laptop (bag|case|sleeve)s? -> NOT laptop computers".into());
    // Expression-language rules ride the same executors and the same
    // admission machinery (literal CNF → automaton, attrs → postings).
    lines.push("rule: price < 5 && title ~ /tower/ => NOT desktop computers".into());
    lines.push("rule: has(ISBN) && vendor >= 0 => books".into());
    lines.push("rule: title ~ /thinkpad/ || title ~ /ideapad/ => laptop computers".into());
    lines.push(r#"rule: `Brand Name` == "apple" && !(title ~ /cable/) => smartphones"#.into());
    lines.push("num(Pages) == 300 -> books".into());

    for line in &lines {
        repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
    }
    let rules = repo.enabled_snapshot();
    assert!(rules.len() >= 200, "expected a few hundred rules, got {}", rules.len());
    rules
}

fn adversarial_products() -> Vec<Product> {
    let mk = |title: &str, attrs: &[(&str, &str)]| Product {
        id: 0,
        title: title.into(),
        description: String::new(),
        attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        vendor: VendorId(0),
    };
    vec![
        mk("55\" 4K TV wall-mountable", &[]),
        mk("tv", &[]),
        mk("Bodum café PRESS 8-cup", &[]),
        mk("ΕΛΛΗΝΙΚΟΣ ΟΔΟΣ crème BRÛLÉE torch", &[]),
        mk("überbook pro 14", &[]),
        mk("refurbished PC tower", &[("Price", "4.99")]),
        mk("Lenovo ThinkPad X1", &[]),
        mk("novel", &[("ISBN", "9781234567890"), ("isbn", "dup")]),
        mk("apple thing", &[("Brand Name", "APPLE")]),
        mk("padded laptop sleeve", &[]),
        mk("", &[]),
        mk("ss", &[]), // shorter than every rule literal but "tv"/"pc"
    ]
}

#[test]
fn engine_agrees_with_oracle_on_generated_catalog() {
    let taxonomy = Taxonomy::builtin();
    let rules = build_rules(&taxonomy);
    let naive = NaiveExecutor::new(rules.clone());
    let scan = LiteralScanExecutor::new(rules);

    let mut generator = CatalogGenerator::with_seed(taxonomy, 0xD1FF);
    let mut products: Vec<Product> =
        generator.generate(400).into_iter().map(|i| i.product).collect();
    products.extend(adversarial_products());

    for p in &products {
        let fired = |e: &dyn RuleExecutor| -> Vec<RuleId> {
            let mut v = e.matching_rules(p);
            v.sort_unstable();
            v
        };
        assert_eq!(fired(&naive), fired(&scan), "literal-scan disagreement on {:?}", p.title);

        let n = naive.candidates_considered(p);
        let l = scan.candidates_considered(p);
        assert!(l <= n, "literal-scan considered {l} > naive {n} on {:?}", p.title);
    }
}

#[test]
fn candidate_metrics_agree_with_execution_stats() {
    // The observability counters and `execution_stats` are two views of the
    // same `matching_rules_with_stats` call; for the engine and the oracle
    // alike they must report identical product, candidate, and fired totals.
    let taxonomy = Taxonomy::builtin();
    let rules = build_rules(&taxonomy);
    let mut generator = CatalogGenerator::with_seed(taxonomy, 0xD1FF);
    let mut products: Vec<Product> =
        generator.generate(200).into_iter().map(|i| i.product).collect();
    products.extend(adversarial_products());
    let n = products.len() as u64;

    let registry = rulekit_obs::Registry::new();
    let mut candidate_sums = Vec::new();
    for kind in [ExecutorKind::Naive, ExecutorKind::LiteralScan] {
        let metrics = ExecMetrics::register(&registry, kind);
        let executor = kind.build_with(rules.clone(), Some(metrics.clone()));
        let stats = execution_stats(executor.as_ref(), &products);

        assert_eq!(metrics.products.value(), n, "{kind}: one record per product");
        assert_eq!(metrics.candidates.count(), n, "{kind}: one histogram sample per product");
        let avg_considered = metrics.candidates.snapshot().sum as f64 / n as f64;
        assert_eq!(avg_considered, stats.avg_considered, "{kind}: candidate totals diverge");
        let avg_fired = metrics.fired.value() as f64 / n as f64;
        assert_eq!(avg_fired, stats.avg_fired, "{kind}: fired totals diverge");
        // No per-product count can exceed the rule count, and the histogram's
        // max is exact below SUB_BUCKETS so it is bounded by it too.
        assert!(metrics.candidates.snapshot().max <= stats.rule_count as u64, "{kind}");
        match kind {
            ExecutorKind::LiteralScan => assert!(
                metrics.automaton_hits.value() > 0,
                "catalog titles must contain rule literals"
            ),
            ExecutorKind::Naive => assert_eq!(metrics.automaton_hits.value(), 0, "no automaton"),
        }
        candidate_sums.push(metrics.candidates.snapshot().sum);
    }
    // Index selectivity ordering holds in aggregate, mirroring the
    // per-product assertion in `engine_agrees_with_oracle_on_generated_catalog`.
    assert!(candidate_sums[1] <= candidate_sums[0], "literal-scan considered more than naive");

    // The shared registry renders both executor families side by side.
    let text = registry.render_text();
    for kind in ["naive", "literal-scan"] {
        assert!(
            text.contains(&format!("rulekit_exec_candidates_count{{executor=\"{kind}\"}}")),
            "missing exposition for {kind}:\n{text}"
        );
    }
}

#[test]
fn stats_and_plain_paths_are_consistent() {
    // matching_rules / matching_rules_with_stats / candidates_considered
    // must be views of the same computation.
    let taxonomy = Taxonomy::builtin();
    let rules = build_rules(&taxonomy);
    let scan = LiteralScanExecutor::new(rules);
    for p in adversarial_products() {
        let prepared = rulekit_core::PreparedProduct::new(&p);
        let (fired, considered) = scan.matching_rules_with_stats(&prepared);
        assert_eq!(fired, scan.matching_rules_prepared(&prepared));
        assert_eq!(fired, scan.matching_rules(&p));
        assert_eq!(considered, scan.candidates_considered(&p));
        assert!(fired.len() <= considered);
    }
}
