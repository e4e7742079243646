//! Rule-system properties (§4 "Rule System Properties and Design").
//!
//! The paper's example property: "the output of the system remains the same
//! regardless of the order in which the rules are being executed". Because
//! [`crate::classifier::RuleClassifier`] aggregates each phase commutatively
//! (whitelist: weight sums; blacklist: set union; restriction: set
//! intersection) and always runs whitelist before blacklist, the property
//! holds *by construction*; this module verifies it mechanically over
//! concrete rule sets and data, the way a rule-system audit would.

use crate::classifier::{RuleClassifier, RuleVerdict};
use crate::engine::NaiveExecutor;
use crate::rule::Rule;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rulekit_data::Product;
use std::sync::Arc;

/// Result of an order-independence audit.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderAudit {
    /// Permutations tried.
    pub permutations: usize,
    /// Products checked per permutation.
    pub products: usize,
    /// First counterexample found, if any: (product index, permutation
    /// number).
    pub counterexample: Option<(usize, usize)>,
}

impl OrderAudit {
    /// Whether the property held on everything checked.
    pub fn holds(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Classifies every product under `permutations` random orderings of
/// `rules` and reports the first divergence from the canonical ordering.
pub fn audit_order_independence(
    rules: &[Rule],
    products: &[Product],
    permutations: usize,
    seed: u64,
) -> OrderAudit {
    let baseline = verdicts(rules.to_vec(), products);
    let mut rng = StdRng::seed_from_u64(seed);
    for perm in 0..permutations {
        let mut shuffled = rules.to_vec();
        shuffled.shuffle(&mut rng);
        let outcome = verdicts(shuffled, products);
        for (i, (a, b)) in baseline.iter().zip(&outcome).enumerate() {
            if a != b {
                return OrderAudit {
                    permutations,
                    products: products.len(),
                    counterexample: Some((i, perm)),
                };
            }
        }
    }
    OrderAudit { permutations, products: products.len(), counterexample: None }
}

fn verdicts(rules: Vec<Rule>, products: &[Product]) -> Vec<RuleVerdict> {
    let classifier = RuleClassifier::over(Arc::new(NaiveExecutor::new(rules)));
    products.iter().map(|p| classifier.classify(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::RuleParser;
    use crate::repository::RuleRepository;
    use crate::rule::RuleMeta;
    use rulekit_data::{CatalogGenerator, Taxonomy};

    #[test]
    fn chimera_style_rule_set_is_order_independent() {
        let tax = Taxonomy::builtin();
        let parser = RuleParser::new(tax.clone());
        let repo = RuleRepository::new();
        for line in [
            "rings? -> rings",
            "wedding bands? -> rings",
            "(area|oriental|braided) rugs? -> area rugs",
            "laptops? -> laptop computers",
            "laptop (bag|case|sleeve)s? -> NOT laptop computers",
            "laptop (bag|case|sleeve)s? -> laptop bags & cases",
            "attr(ISBN) -> books",
            "value(Brand Name = Apple) -> one of laptop computers; smartphones; tablets",
        ] {
            repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
        }
        let rules = repo.enabled_snapshot();
        let mut generator = CatalogGenerator::with_seed(tax, 99);
        let products: Vec<_> = generator.generate(200).into_iter().map(|i| i.product).collect();
        let audit = audit_order_independence(&rules, &products, 10, 7);
        assert!(audit.holds(), "counterexample: {:?}", audit.counterexample);
        assert_eq!(audit.permutations, 10);
        assert_eq!(audit.products, 200);
    }

    #[test]
    fn empty_rule_set_trivially_holds() {
        let audit = audit_order_independence(&[], &[], 3, 0);
        assert!(audit.holds());
    }
}
