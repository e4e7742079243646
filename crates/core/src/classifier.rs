//! Rule-based classification with the paper's phase semantics: whitelist
//! rules execute before blacklist rules (§4, "Rule System Properties"), and
//! within each phase results are aggregated commutatively, which is what
//! makes the output independent of rule execution order — a property the
//! `properties` module verifies mechanically.
//!
//! The classifier owns no rules: it reads each fired rule's action and
//! confidence from the executor's [`RuleTable`](crate::engine::RuleTable) by
//! table position, the same flat arrays the executor evaluates.

use crate::engine::{Effect, RuleExecutor, RuleTable};
use crate::prepared::PreparedProduct;
use crate::rule::{Rule, RuleId};
use rulekit_data::{Product, TypeId};
use std::collections::HashMap;
use std::sync::Arc;

/// The outcome of running the rule layers on one product.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleVerdict {
    /// Whitelist-assigned types with aggregated confidence weights, sorted
    /// by descending weight (ties by type id).
    pub assigned: Vec<(TypeId, f64)>,
    /// Whitelist rules that fired.
    pub fired_whitelist: Vec<RuleId>,
    /// Types forbidden by fired blacklist rules.
    pub forbidden: Vec<TypeId>,
    /// Blacklist rules that fired.
    pub fired_blacklist: Vec<RuleId>,
    /// Intersection of fired restriction rules' allowed sets (`None` = no
    /// restriction fired).
    pub restricted: Option<Vec<TypeId>>,
    /// Restriction rules that fired.
    pub fired_restrictions: Vec<RuleId>,
}

impl RuleVerdict {
    /// Final candidates: whitelist assignments minus forbidden types,
    /// intersected with any restriction. Sorted by descending weight.
    pub fn final_candidates(&self) -> Vec<(TypeId, f64)> {
        self.assigned
            .iter()
            .filter(|(ty, _)| !self.forbidden.contains(ty))
            .filter(|(ty, _)| match &self.restricted {
                Some(allowed) => allowed.contains(ty),
                None => true,
            })
            .copied()
            .collect()
    }

    /// The surviving top candidate.
    pub fn top(&self) -> Option<(TypeId, f64)> {
        self.final_candidates().into_iter().next()
    }

    /// Whether a candidate type `ty` is permitted by the blacklist and
    /// restriction phases (used by the Chimera filter on learning output).
    pub fn permits(&self, ty: TypeId) -> bool {
        !self.forbidden.contains(&ty)
            && match &self.restricted {
                Some(allowed) => allowed.contains(&ty),
                None => true,
            }
    }

    /// Whether any rule fired at all.
    pub fn any_fired(&self) -> bool {
        !self.fired_whitelist.is_empty()
            || !self.fired_blacklist.is_empty()
            || !self.fired_restrictions.is_empty()
    }
}

/// A rule-based classifier: an executor (which finds the rules that fire)
/// plus the phase-aggregation semantics.
pub struct RuleClassifier {
    executor: Arc<dyn RuleExecutor>,
}

impl RuleClassifier {
    /// Builds a classifier over an executor and the rules it serves.
    /// `rules` must be the rules the executor was built from, in the same
    /// order: the classifier reads them from the executor's table, so this
    /// is [`RuleClassifier::over`] for callers that compile both from one
    /// snapshot.
    pub fn new(executor: Arc<dyn RuleExecutor>, rules: Vec<Rule>) -> Self {
        debug_assert!(
            rules.iter().map(|r| r.id).eq(executor.table().ids().iter().copied()),
            "classifier rules differ from the executor's"
        );
        RuleClassifier::over(executor)
    }

    /// A classifier over the rules `executor` serves.
    pub fn over(executor: Arc<dyn RuleExecutor>) -> Self {
        RuleClassifier { executor }
    }

    /// The rule table the executor and this classifier share.
    pub fn table(&self) -> &RuleTable {
        self.executor.table()
    }

    /// Classifies one product. The product is prepared (case-folded) once
    /// here; the executor and every rule condition reuse that preparation.
    pub fn classify(&self, product: &Product) -> RuleVerdict {
        let prepared = PreparedProduct::new(product);
        self.classify_prepared(&prepared)
    }

    /// Classifies an already-prepared product — used by the pipeline to
    /// prepare once (optionally with an aggregate store attached) and run
    /// both the gate keeper and the main rule layer on the same view.
    pub fn classify_prepared(&self, prepared: &PreparedProduct<'_>) -> RuleVerdict {
        let table = self.executor.table();
        let ids = table.ids();
        let (mut fired, _) = self.executor.matching_positions(prepared);
        // Rule-id order, so weight sums are bit-identical however the table
        // is laid out.
        fired.sort_unstable_by_key(|&i| ids[i as usize]);

        let mut verdict = RuleVerdict::default();
        let mut weights: HashMap<TypeId, f64> = HashMap::new();

        // Phase 1: whitelist (order within the phase is irrelevant — weights
        // are summed, a commutative aggregation).
        for &i in &fired {
            if let Effect::Assign(ty, confidence) = table.effect(i) {
                *weights.entry(ty).or_insert(0.0) += confidence;
                verdict.fired_whitelist.push(ids[i as usize]);
            }
        }

        // Phase 2: blacklist (set union — also commutative).
        for &i in &fired {
            if let Effect::Forbid(ty) = table.effect(i) {
                if !verdict.forbidden.contains(&ty) {
                    verdict.forbidden.push(ty);
                }
                verdict.fired_blacklist.push(ids[i as usize]);
            }
        }
        verdict.forbidden.sort_unstable();

        // Phase 3: restrictions (set intersection — commutative).
        for &i in &fired {
            if let Effect::Restrict = table.effect(i) {
                let allowed = table.restriction(i);
                verdict.restricted = Some(match verdict.restricted.take() {
                    None => {
                        let mut a = allowed.to_vec();
                        a.sort_unstable();
                        a
                    }
                    Some(current) => current.into_iter().filter(|t| allowed.contains(t)).collect(),
                });
                verdict.fired_restrictions.push(ids[i as usize]);
            }
        }

        let mut assigned: Vec<(TypeId, f64)> = weights.into_iter().collect();
        assigned
            .sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite confidences").then(a.0.cmp(&b.0)));
        verdict.assigned = assigned;
        verdict
    }

    /// Number of rules served.
    pub fn rule_count(&self) -> usize {
        self.executor.rule_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::RuleParser;
    use crate::engine::NaiveExecutor;
    use crate::repository::RuleRepository;
    use crate::rule::RuleMeta;
    use rulekit_data::{Taxonomy, VendorId};

    fn classifier(lines: &[&str]) -> (RuleClassifier, Arc<Taxonomy>) {
        let tax = Taxonomy::builtin();
        let parser = RuleParser::new(tax.clone());
        let repo = RuleRepository::new();
        for line in lines {
            repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
        }
        (RuleClassifier::over(Arc::new(NaiveExecutor::new(repo.enabled_snapshot()))), tax)
    }

    fn product(title: &str, attrs: &[(&str, &str)]) -> Product {
        Product {
            id: 0,
            title: title.into(),
            description: String::new(),
            attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            vendor: VendorId(0),
        }
    }

    #[test]
    fn whitelist_assigns() {
        let (c, tax) = classifier(&["rings? -> rings"]);
        let v = c.classify(&product("Diamond Accent Ring", &[]));
        assert_eq!(v.top().unwrap().0, tax.id_of("rings").unwrap());
        assert_eq!(v.fired_whitelist.len(), 1);
    }

    #[test]
    fn blacklist_removes_assignment() {
        // The laptop-bag trap: "laptop" whitelists laptops, the bag blacklist
        // rule saves the day.
        let (c, tax) = classifier(&[
            "laptops? -> laptop computers",
            "laptop (bag|case|sleeve)s? -> NOT laptop computers",
            "laptop (bag|case|sleeve)s? -> laptop bags & cases",
        ]);
        let v = c.classify(&product("padded laptop sleeve for 15.6 inch laptops", &[]));
        assert_eq!(v.top().unwrap().0, tax.id_of("laptop bags & cases").unwrap());
        assert!(!v.permits(tax.id_of("laptop computers").unwrap()));
    }

    #[test]
    fn multiple_whitelist_hits_accumulate_weight() {
        let (c, tax) =
            classifier(&["rings? -> rings", "wedding bands? -> rings", "diamond -> rings"]);
        let v = c.classify(&product("diamond wedding band ring", &[]));
        let rings = tax.id_of("rings").unwrap();
        assert_eq!(v.assigned, vec![(rings, 3.0)]);
    }

    #[test]
    fn restriction_filters_candidates() {
        let (c, tax) = classifier(&[
            "apple -> smartphones",
            "apple -> books",
            "value(Brand Name = Apple) -> one of smartphones; laptop computers",
        ]);
        let v = c.classify(&product("apple device", &[("Brand Name", "Apple")]));
        let finals = v.final_candidates();
        assert_eq!(finals.len(), 1);
        assert_eq!(finals[0].0, tax.id_of("smartphones").unwrap());
        assert!(v.restricted.is_some());
    }

    #[test]
    fn restrictions_intersect() {
        let (c, _) = classifier(&[
            "value(Brand Name = Apple) -> one of smartphones; laptop computers",
            "price < 100 -> one of phone cases; phone chargers; computer cables",
        ]);
        let v = c.classify(&product("apple thing", &[("Brand Name", "Apple"), ("Price", "20")]));
        // Intersection of the two restriction sets is empty.
        assert_eq!(v.restricted.as_deref(), Some(&[][..]));
    }

    #[test]
    fn attribute_rule_fires_without_title_signal() {
        let (c, tax) = classifier(&["attr(ISBN) -> books"]);
        let v = c.classify(&product("mystery item", &[("ISBN", "9781234567890")]));
        assert_eq!(v.top().unwrap().0, tax.id_of("books").unwrap());
    }

    #[test]
    fn no_rules_fire_on_unrelated_product() {
        let (c, _) = classifier(&["rings? -> rings"]);
        let v = c.classify(&product("garden hose", &[]));
        assert!(!v.any_fired());
        assert!(v.top().is_none());
    }

    #[test]
    fn verdict_permits_checks_blacklist_and_restriction() {
        let (c, tax) = classifier(&[
            "cable -> NOT smartphones",
            "value(Brand Name = Apple) -> one of smartphones; computer cables",
        ]);
        let v = c.classify(&product("apple cable", &[("Brand Name", "Apple")]));
        assert!(!v.permits(tax.id_of("smartphones").unwrap())); // blacklisted
        assert!(v.permits(tax.id_of("computer cables").unwrap()));
        assert!(!v.permits(tax.id_of("books").unwrap())); // outside restriction
    }
}
