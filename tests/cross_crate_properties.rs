//! Cross-crate property tests: executor equivalence, order independence,
//! and EM semantics invariants over generated data.

use proptest::prelude::*;
use rulekit::core::{
    audit_order_independence, LiteralScanExecutor, NaiveExecutor, RuleExecutor, RuleMeta,
    RuleParser, RuleRepository,
};
use rulekit::data::{CatalogGenerator, Taxonomy};
use rulekit::em::{MatchAction, MatchRule, Predicate, RuleMatcher, Semantics};

/// A pool of realistic rule lines to sample subsets from.
fn rule_pool() -> Vec<String> {
    let taxonomy = Taxonomy::builtin();
    let mut lines = Vec::new();
    for id in taxonomy.ids().take(40) {
        let def = taxonomy.def(id);
        let head = def.heads[0].to_lowercase();
        lines.push(format!("{}s? -> {}", rulekit::regex::escape(&head), def.name));
        if let Some(q) = def.qualifiers.first() {
            lines.push(format!(
                "{}.*{}s? -> {}",
                rulekit::regex::escape(&q.to_lowercase()),
                rulekit::regex::escape(&head),
                def.name
            ));
        }
    }
    lines.push("laptop (bag|case|sleeve)s? -> NOT laptop computers".into());
    lines.push("attr(ISBN) -> one of books; cookbooks; children's books".into());
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The literal-scan engine agrees with the naive executor on any rule
    /// subset and any generated products.
    #[test]
    fn literal_scan_equals_naive(
        seed in 0u64..1000,
        mask in prop::collection::vec(any::<bool>(), 82),
    ) {
        let taxonomy = Taxonomy::builtin();
        let parser = RuleParser::new(taxonomy.clone());
        let repo = RuleRepository::new();
        for (line, keep) in rule_pool().iter().zip(mask.iter().cycle()) {
            if *keep {
                repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
            }
        }
        let rules = repo.enabled_snapshot();
        let naive = NaiveExecutor::new(rules.clone());
        let scan = LiteralScanExecutor::new(rules);

        let mut generator = CatalogGenerator::with_seed(taxonomy, seed);
        for item in generator.generate(60) {
            let mut a = naive.matching_rules(&item.product);
            let mut b = scan.matching_rules(&item.product);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(&a, &b, "literal-scan disagreement on {:?}", item.product.title);
        }
    }

    /// Whitelist-before-blacklist phase aggregation is order-independent for
    /// any sampled rule set (§4's example property).
    #[test]
    fn rule_system_is_order_independent(seed in 0u64..1000) {
        let taxonomy = Taxonomy::builtin();
        let parser = RuleParser::new(taxonomy.clone());
        let repo = RuleRepository::new();
        for line in rule_pool() {
            repo.add(parser.parse_rule(&line).unwrap(), RuleMeta::default());
        }
        let rules = repo.enabled_snapshot();
        let mut generator = CatalogGenerator::with_seed(taxonomy, seed);
        let products: Vec<_> = generator.generate(50).into_iter().map(|i| i.product).collect();
        let audit = audit_order_independence(&rules, &products, 4, seed);
        prop_assert!(audit.holds(), "counterexample {:?}", audit.counterexample);
    }

    /// Declarative EM semantics never depends on rule order; decisions are
    /// symmetric in rule permutation.
    #[test]
    fn declarative_em_semantics_order_invariant(seed in 0u64..1000) {
        let taxonomy = Taxonomy::builtin();
        let mut generator = CatalogGenerator::with_seed(taxonomy.clone(), seed);
        let books = taxonomy.id_of("books").unwrap();
        let items = generator.generate_n_for_type(books, 30);

        let rules = vec![
            MatchRule {
                name: "title".into(),
                predicates: vec![Predicate::TitleQgramJaccard { q: 3, threshold: 0.7 }],
                action: MatchAction::Match,
            },
            MatchRule {
                name: "isbn".into(),
                predicates: vec![Predicate::AttrEqual { attr: "ISBN".into() }],
                action: MatchAction::Match,
            },
            MatchRule {
                name: "pages-present".into(),
                predicates: vec![Predicate::BothHave { attr: "Pages".into() }],
                action: MatchAction::NonMatch,
            },
        ];
        let fwd = RuleMatcher::new(rules.clone(), Semantics::Declarative);
        let rev = fwd.reversed();
        for (i, a) in items.iter().enumerate() {
            for b in items.iter().skip(i + 1) {
                prop_assert_eq!(
                    fwd.matches(&a.product, &b.product),
                    rev.matches(&a.product, &b.product)
                );
            }
        }
    }

    /// The title index finds exactly the titles a full scan finds, for any
    /// analyst-shaped pattern.
    #[test]
    fn title_index_matches_equal_scan(seed in 0u64..1000, pattern_idx in 0usize..6) {
        use rulekit::core::{compile_pattern, TitleIndex};
        let patterns = [
            "rings?",
            "diamond.*trio sets?",
            "(area|oriental|braided) rugs?",
            r"\w+ oils?",
            "laptop (bag|case|sleeve)s?",
            "(motor | engine) oils?",
        ];
        let taxonomy = Taxonomy::builtin();
        let mut generator = CatalogGenerator::with_seed(taxonomy, seed);
        let titles: Vec<String> = generator
            .generate(300)
            .into_iter()
            .map(|i| i.product.title)
            .collect();
        let index = TitleIndex::build(titles.iter().map(String::as_str));
        let regex = compile_pattern(patterns[pattern_idx]).unwrap();
        prop_assert_eq!(index.matching(&regex), index.matching_scan(&regex));
    }
}
