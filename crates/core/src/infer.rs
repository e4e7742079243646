//! The fact-inference tier: forward chaining over a per-item working
//! memory.
//!
//! Analysts think in facts — "brand is LEGO and it has a piece count, so
//! it's a toy" — but classification conditions only see the flat product.
//! This module evaluates antecedent⇒consequent rules
//! (`infer: <expr> => fact <name> = <value> [@conf] [^prio]`) against a
//! **working memory** seeded from the product's attributes, the `ie`
//! extractor output, and previously derived facts, chaining to fixpoint.
//! Derived facts are then appended to the product as ordinary attributes,
//! so every downstream consumer — the three executors, the expression VM,
//! the gate keeper — sees them with zero changes.
//!
//! ## Fixpoint semantics (confluence by construction)
//!
//! Evaluation is **round-based and synchronous**: every rule in a round
//! is evaluated against the *same frozen snapshot* of working memory, and
//! the round's winners are merged in one deterministic step. Within a
//! round, when several rules derive the same fact name, one winner is
//! chosen by the total order
//!
//! > priority desc → confidence desc → value lexicographic asc → rule id asc
//!
//! which has no ties (rule ids are unique), so the outcome is independent
//! of rule evaluation order — shuffling the rule vector cannot change the
//! fixpoint (the property suite asserts exactly this).
//!
//! A fact name is written **at most once** per item (first round to derive
//! it wins; names already present as product attributes or seeds are never
//! overwritten). Working memory therefore only grows, each productive
//! round adds at least one name from a finite set, and chaining must
//! terminate within `min(max_rounds, #rules)` rounds — cyclic and
//! self-referential rule graphs simply stop producing new names.

use crate::aggregate::AggregateStore;
use crate::prepared::{fold_lower, PreparedProduct};
use crate::rule::{Condition, InferFact, Rule, RuleAction, RuleId};
use rulekit_data::Product;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Default cap on chaining rounds. Real rule sets fix within a handful of
/// rounds; the cap is a belt-and-braces bound for adversarial inputs.
pub const DEFAULT_MAX_ROUNDS: usize = 32;

/// One fact-inference rule: an expression antecedent plus the fact its
/// firing derives.
#[derive(Debug, Clone)]
pub struct InferRule {
    /// Repository rule id (conflict-resolution tiebreaker).
    pub id: RuleId,
    /// Antecedent, evaluated against working memory.
    pub condition: Condition,
    /// Consequent.
    pub fact: InferFact,
    /// Original DSL source line.
    pub source: String,
}

impl InferRule {
    /// Extracts the inference view of a repository rule, if it is one.
    pub fn from_rule(rule: &Rule) -> Option<InferRule> {
        match &rule.action {
            RuleAction::Infer(fact) => Some(InferRule {
                id: rule.id,
                condition: rule.condition.clone(),
                fact: fact.clone(),
                source: rule.source.clone(),
            }),
            _ => None,
        }
    }
}

/// A fact derived by chaining.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedFact {
    /// Fact name (folded; becomes the attribute name downstream).
    pub name: String,
    /// Fact value (folded).
    pub value: String,
    /// Confidence of the deriving rule, parts per million.
    pub confidence_ppm: u32,
    /// The rule that won the derivation.
    pub rule: RuleId,
    /// 1-based round the fact was derived in.
    pub round: usize,
}

/// Result of chaining one item to fixpoint.
#[derive(Debug, Clone, Default)]
pub struct InferenceOutcome {
    /// Derived facts, in derivation order (round, then name).
    pub facts: Vec<DerivedFact>,
    /// Productive rounds run (0 when nothing fired).
    pub rounds: usize,
    /// Whether the round bound stopped chaining before fixpoint.
    pub hit_bound: bool,
}

impl InferenceOutcome {
    /// The augmented product: `product` with every derived fact appended
    /// as an attribute, or `None` when nothing was derived (callers keep
    /// the original product and allocate nothing). Facts are appended
    /// *after* the original attributes and never share a name with one,
    /// so existing lookups are unchanged.
    pub fn augmented(&self, product: &Product) -> Option<Product> {
        if self.facts.is_empty() {
            return None;
        }
        let mut out = product.clone();
        out.attributes.extend(self.facts.iter().map(|f| (f.name.clone(), f.value.clone())));
        Some(out)
    }
}

/// Forward-chaining engine over a fixed set of [`InferRule`]s.
#[derive(Debug, Default)]
pub struct InferenceEngine {
    rules: Vec<InferRule>,
    max_rounds: usize,
}

impl InferenceEngine {
    /// Builds an engine over `rules` with the default round bound.
    pub fn new(rules: Vec<InferRule>) -> Self {
        InferenceEngine { rules, max_rounds: DEFAULT_MAX_ROUNDS }
    }

    /// Builds an engine from a repository snapshot — owned rules or the
    /// rules of shared entries — keeping only `RuleAction::Infer` rules.
    pub fn from_rules<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> Self {
        Self::new(rules.into_iter().filter_map(InferRule::from_rule).collect())
    }

    /// Overrides the chaining round bound (min 1).
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds.max(1);
        self
    }

    /// Number of inference rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the engine has no rules (chaining is then a no-op).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, in load order (diagnostics / tests).
    pub fn rules(&self) -> &[InferRule] {
        &self.rules
    }

    /// Chains `product` to fixpoint. `seeds` are extra working-memory
    /// facts (e.g. `ie` extractions) visible to antecedents but *not*
    /// included in the outcome's derived facts; `aggregates` backs
    /// `agg("...")` references in antecedents.
    pub fn infer(
        &self,
        product: &Product,
        seeds: &[(String, String)],
        aggregates: Option<Arc<AggregateStore>>,
    ) -> InferenceOutcome {
        let mut outcome = InferenceOutcome::default();
        if self.rules.is_empty() {
            return outcome;
        }

        // Occupied fact names: product attributes and seeds shadow facts;
        // a rule deriving an occupied name can never fire productively.
        let mut occupied: HashSet<String> =
            product.attributes.iter().map(|(k, _)| fold_lower(k).into_owned()).collect();

        // Working memory as an augmented product: original attributes,
        // then seeds, then derived facts as rounds progress.
        let mut wm = product.clone();
        for (name, value) in seeds {
            let folded = fold_lower(name).into_owned();
            if occupied.insert(folded.clone()) {
                wm.attributes.push((folded, value.clone()));
            }
        }

        // Each productive round writes ≥1 new name, and only rules whose
        // fact name is unwritten can fire, so `#rules` rounds always
        // suffice to reach fixpoint.
        let bound = self.max_rounds.min(self.rules.len()).max(1);
        for round in 1..=bound {
            let prepared = PreparedProduct::with_aggregates(&wm, aggregates.clone());
            let winners = self.round_winners(&prepared, &occupied);
            if winners.is_empty() {
                return outcome; // fixpoint
            }
            outcome.rounds = round;
            for (name, rule) in winners {
                occupied.insert(name.clone());
                wm.attributes.push((name.clone(), rule.fact.value.clone()));
                outcome.facts.push(DerivedFact {
                    name,
                    value: rule.fact.value.clone(),
                    confidence_ppm: rule.fact.confidence_ppm,
                    rule: rule.id,
                    round,
                });
            }
        }

        // Ran out of rounds: probe once to tell "fixed exactly at the
        // bound" from "stopped early".
        let prepared = PreparedProduct::with_aggregates(&wm, aggregates);
        outcome.hit_bound = !self.round_winners(&prepared, &occupied).is_empty();
        outcome
    }

    /// One synchronous round against frozen working memory: every rule
    /// whose fact name is unwritten is evaluated, and per fact name one
    /// winner is chosen by the total conflict-resolution order. The
    /// `BTreeMap` keys the merge by name, so the result is independent of
    /// rule order.
    fn round_winners<'a>(
        &'a self,
        prepared: &PreparedProduct<'_>,
        occupied: &HashSet<String>,
    ) -> BTreeMap<String, &'a InferRule> {
        let mut winners: BTreeMap<String, &InferRule> = BTreeMap::new();
        for rule in &self.rules {
            if occupied.contains(&rule.fact.name) {
                continue;
            }
            if !rule.condition.matches_prepared(prepared) {
                continue;
            }
            winners
                .entry(rule.fact.name.clone())
                .and_modify(|incumbent| {
                    if beats(rule, incumbent) {
                        *incumbent = rule;
                    }
                })
                .or_insert(rule);
        }
        winners
    }
}

/// The conflict-resolution total order: priority desc → confidence desc →
/// value lex asc → rule id asc. Total (ids are unique), so order of
/// comparison cannot matter.
fn beats(a: &InferRule, b: &InferRule) -> bool {
    (b.fact.priority, b.fact.confidence_ppm)
        .cmp(&(a.fact.priority, a.fact.confidence_ppm))
        .then_with(|| a.fact.value.cmp(&b.fact.value))
        .then_with(|| a.id.0.cmp(&b.id.0))
        .is_lt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::RuleParser;
    use crate::rule::RuleMeta;
    use rulekit_data::{Taxonomy, VendorId};

    fn product(title: &str, attrs: &[(&str, &str)]) -> Product {
        Product {
            id: 0,
            title: title.into(),
            description: String::new(),
            attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            vendor: VendorId(0),
        }
    }

    fn engine(lines: &[&str]) -> InferenceEngine {
        let parser = RuleParser::new(Taxonomy::builtin());
        let rules: Vec<Rule> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let spec = parser.parse_rule(line).unwrap();
                Rule {
                    id: RuleId(i as u64 + 1),
                    condition: spec.condition,
                    action: spec.action,
                    meta: RuleMeta::default(),
                    source: spec.source,
                }
            })
            .collect();
        InferenceEngine::from_rules(&rules)
    }

    #[test]
    fn derives_and_chains_to_fixpoint() {
        let eng = engine(&[
            r#"infer: brand == "lego" && has(pieces) => fact kind = toy"#,
            r#"infer: kind == "toy" => fact aisle = 7"#,
        ]);
        let out = eng.infer(&product("x", &[("Brand", "LEGO"), ("Pieces", "500")]), &[], None);
        assert_eq!(out.rounds, 2);
        assert!(!out.hit_bound);
        assert_eq!(
            out.facts.iter().map(|f| (f.name.as_str(), f.value.as_str())).collect::<Vec<_>>(),
            vec![("kind", "toy"), ("aisle", "7")]
        );
        let aug = out.augmented(&product("x", &[("Brand", "LEGO")])).unwrap();
        assert_eq!(aug.attributes.len(), 3);
    }

    #[test]
    fn seeds_are_visible_to_antecedents_but_not_derived() {
        let eng = engine(&[r#"infer: ie_brand == "lego" => fact kind = toy"#]);
        let out = eng.infer(&product("x", &[]), &[("ie_brand".into(), "lego".into())], None);
        assert_eq!(out.facts.len(), 1);
        assert_eq!(out.facts[0].name, "kind");
        // The augmented product holds only the derived fact, not the seed.
        let aug = out.augmented(&product("x", &[])).unwrap();
        assert_eq!(aug.attributes, vec![("kind".to_string(), "toy".to_string())]);
    }

    #[test]
    fn product_attributes_shadow_facts() {
        let eng = engine(&[r#"infer: has(brand) => fact kind = derived"#]);
        let out = eng.infer(&product("x", &[("Brand", "lego"), ("Kind", "original")]), &[], None);
        assert!(out.facts.is_empty(), "occupied names are never rewritten");
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn conflict_resolution_is_total() {
        // Same name derived by four rules in one round: priority wins,
        // then confidence, then value, then id.
        let eng = engine(&[
            r#"infer: has(a) => fact k = low ^1"#,
            r#"infer: has(a) => fact k = winner ^5 @0.8"#,
            r#"infer: has(a) => fact k = outconfed ^5 @0.7"#,
            r#"infer: has(a) => fact k = zz_lexloser ^5 @0.8"#,
        ]);
        let out = eng.infer(&product("x", &[("a", "1")]), &[], None);
        assert_eq!(out.facts.len(), 1);
        assert_eq!(out.facts[0].value, "winner");
        assert_eq!(out.facts[0].rule, RuleId(2));
    }

    #[test]
    fn cyclic_rules_terminate() {
        // a ⇒ b, b ⇒ a: second rule's name gets written in round 2 and
        // chaining stops — no oscillation, no panic.
        let eng = engine(&[
            r#"infer: has(seed) => fact a = 1"#,
            r#"infer: a == "1" => fact b = 1"#,
            r#"infer: b == "1" => fact a = 2"#, // cycle back; name occupied
        ]);
        let out = eng.infer(&product("x", &[("seed", "y")]), &[], None);
        assert!(!out.hit_bound);
        assert_eq!(out.facts.len(), 2);
    }

    #[test]
    fn round_bound_reports_hit() {
        // A 3-deep chain with a bound of 1 stops early and says so.
        let eng = engine(&[
            r#"infer: has(seed) => fact a = 1"#,
            r#"infer: has(a) => fact b = 1"#,
            r#"infer: has(b) => fact c = 1"#,
        ])
        .with_max_rounds(1);
        let out = eng.infer(&product("x", &[("seed", "y")]), &[], None);
        assert_eq!(out.rounds, 1);
        assert!(out.hit_bound);
        assert_eq!(out.facts.len(), 1);
    }

    #[test]
    fn empty_engine_is_a_noop() {
        let eng = InferenceEngine::new(Vec::new());
        let out = eng.infer(&product("x", &[("a", "1")]), &[], None);
        assert!(out.facts.is_empty() && out.rounds == 0 && !out.hit_bound);
        assert!(out.augmented(&product("x", &[])).is_none());
    }

    #[test]
    fn aggregates_reachable_from_antecedents() {
        let aggs = Arc::new(AggregateStore::new());
        let r = aggs.ratio("vendor_mismatch_rate");
        for i in 0..100 {
            r.record(i < 10);
        }
        let eng = engine(&[r#"infer: agg("vendor_mismatch_rate") > 0.05 => fact risky = yes"#]);
        let out = eng.infer(&product("x", &[]), &[], Some(aggs.clone()));
        assert_eq!(out.facts.len(), 1);
        // Without the store attached the aggregate is Missing → no fire.
        let out = eng.infer(&product("x", &[]), &[], None);
        assert!(out.facts.is_empty());
    }
}
