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
//! so every downstream consumer — the rule engine, the expression VM, the
//! gate keeper — sees them with zero changes.
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
//!
//! ## Evaluation
//!
//! The fact rules run on the classification engine: one
//! [`LiteralScanExecutor`] over their repository entries decides, each round,
//! which antecedents hold on working memory. A rule is considered only when
//! its required title literals occur, when the attribute its antecedent
//! requires is present (a product attribute, a seed, or a fact an earlier
//! round derived), or when it has neither. There is no dependency index
//! between rounds: chains are a few rounds deep, and each round re-admits
//! from the literal and attribute postings.

use crate::aggregate::AggregateStore;
use crate::engine::{LiteralScanExecutor, RuleExecutor};
use crate::prepared::{fold_lower, PreparedProduct};
use crate::repository::RuleEntry;
use crate::rule::{InferFact, Rule, RuleAction, RuleId};
use rulekit_data::Product;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Default cap on chaining rounds. Real rule sets fix within a handful of
/// rounds; the cap is a belt-and-braces bound for adversarial inputs.
pub const DEFAULT_MAX_ROUNDS: usize = 32;

fn is_fact_rule(rule: &Rule) -> bool {
    matches!(rule.action, RuleAction::Infer(_))
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

/// Forward-chaining engine over the fact rules of a repository snapshot.
pub struct InferenceEngine {
    /// Admits and evaluates the fact rules; built without `ExecMetrics`, so
    /// the executor series count classification only.
    executor: LiteralScanExecutor,
    max_rounds: usize,
}

impl InferenceEngine {
    /// Builds an engine over shared repository entries, keeping only
    /// `RuleAction::Infer` rules. Each rule's compiled form is the entry's,
    /// shared with every other build that holds the entry.
    pub fn from_entries(mut entries: Vec<Arc<RuleEntry>>) -> Self {
        entries.retain(|e| is_fact_rule(e.rule()));
        InferenceEngine {
            executor: LiteralScanExecutor::from_entries(entries),
            max_rounds: DEFAULT_MAX_ROUNDS,
        }
    }

    /// Builds an engine from owned rules, keeping only `RuleAction::Infer`
    /// rules (a cold compile).
    pub fn from_rules<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> Self {
        Self::from_entries(
            rules
                .into_iter()
                .filter(|r| is_fact_rule(r))
                .map(|r| Arc::new(RuleEntry::new(r.clone())))
                .collect(),
        )
    }

    /// Overrides the chaining round bound (min 1).
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds.max(1);
        self
    }

    /// Number of inference rules.
    pub fn len(&self) -> usize {
        self.executor.rule_count()
    }

    /// Whether the engine has no rules (chaining is then a no-op).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        self.chain(product, seeds, aggregates, |_| {})
    }

    /// [`InferenceEngine::infer`], also reporting how many rules each round
    /// considered (the fixpoint probe included), for the work guard in
    /// `tests/infer_work.rs`.
    #[doc(hidden)]
    pub fn infer_counted(
        &self,
        product: &Product,
        seeds: &[(String, String)],
        aggregates: Option<Arc<AggregateStore>>,
    ) -> (InferenceOutcome, Vec<usize>) {
        let mut considered = Vec::new();
        let outcome = self.chain(product, seeds, aggregates, |n| considered.push(n));
        (outcome, considered)
    }

    fn chain(
        &self,
        product: &Product,
        seeds: &[(String, String)],
        aggregates: Option<Arc<AggregateStore>>,
        mut considered: impl FnMut(usize),
    ) -> InferenceOutcome {
        let mut outcome = InferenceOutcome::default();
        if self.is_empty() {
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
        let bound = self.max_rounds.min(self.len()).max(1);
        for round in 1..=bound {
            let prepared = PreparedProduct::with_aggregates(&wm, aggregates.clone());
            let winners = self.round_winners(&prepared, &occupied, &mut considered);
            if winners.is_empty() {
                return outcome; // fixpoint
            }
            outcome.rounds = round;
            for (name, i) in winners {
                let fact = self.fact(i);
                occupied.insert(name.to_owned());
                wm.attributes.push((name.to_owned(), fact.value.clone()));
                outcome.facts.push(DerivedFact {
                    name: name.to_owned(),
                    value: fact.value.clone(),
                    confidence_ppm: fact.confidence_ppm,
                    rule: self.executor.table().ids()[i as usize],
                    round,
                });
            }
        }

        // Ran out of rounds: probe once to tell "fixed exactly at the
        // bound" from "stopped early".
        let prepared = PreparedProduct::with_aggregates(&wm, aggregates);
        outcome.hit_bound = !self.round_winners(&prepared, &occupied, &mut considered).is_empty();
        outcome
    }

    /// One synchronous round against frozen working memory: the engine
    /// finds the rules whose antecedent holds, rules deriving a written name
    /// drop out, and per fact name one winner (a table position) is chosen
    /// by the total conflict-resolution order. The `BTreeMap` keys the merge
    /// by name, so the result is independent of rule order.
    fn round_winners(
        &self,
        prepared: &PreparedProduct<'_>,
        occupied: &HashSet<String>,
        considered: &mut impl FnMut(usize),
    ) -> BTreeMap<&str, u32> {
        let (fired, candidates) = self.executor.matching_positions(prepared);
        considered(candidates);
        let mut winners: BTreeMap<&str, u32> = BTreeMap::new();
        for i in fired {
            let name = self.fact(i).name.as_str();
            if occupied.contains(name) {
                continue;
            }
            winners
                .entry(name)
                .and_modify(|incumbent| {
                    if self.beats(i, *incumbent) {
                        *incumbent = i;
                    }
                })
                .or_insert(i);
        }
        winners
    }

    /// The fact the rule at table position `i` derives.
    fn fact(&self, i: u32) -> &InferFact {
        match &self.executor.table().entries()[i as usize].rule().action {
            RuleAction::Infer(fact) => fact,
            _ => unreachable!("the engine holds fact rules only"),
        }
    }

    /// The conflict-resolution total order between the rules at positions
    /// `a` and `b`: priority desc → confidence desc → value lex asc → rule
    /// id asc. Total (ids are unique), so order of comparison cannot matter.
    fn beats(&self, a: u32, b: u32) -> bool {
        let (fa, fb) = (self.fact(a), self.fact(b));
        let ids = self.executor.table().ids();
        (fb.priority, fb.confidence_ppm)
            .cmp(&(fa.priority, fa.confidence_ppm))
            .then_with(|| fa.value.cmp(&fb.value))
            .then_with(|| ids[a as usize].cmp(&ids[b as usize]))
            .is_lt()
    }
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
        let eng = InferenceEngine::from_entries(Vec::new());
        let out = eng.infer(&product("x", &[("a", "1")]), &[], None);
        assert!(out.facts.is_empty() && out.rounds == 0 && !out.hit_bound);
        assert!(out.augmented(&product("x", &[])).is_none());
    }

    #[test]
    fn from_entries_keeps_fact_rules_and_shares_their_programs() {
        let parser = RuleParser::new(Taxonomy::builtin());
        let repo = crate::repository::RuleRepository::new();
        for line in ["rings? -> rings", r#"infer: has(isbn) => fact media = book"#] {
            repo.add(parser.parse_rule(line).unwrap(), RuleMeta::default());
        }
        let (_, entries) = repo.versioned_entries();
        let eng = InferenceEngine::from_entries(entries.clone());
        assert_eq!(eng.len(), 1, "the classification rule is dropped");
        assert!(Arc::ptr_eq(&eng.executor.table().programs()[0], &entries[1].compiled().program));
        let out = eng.infer(&product("x", &[("ISBN", "978")]), &[], None);
        assert_eq!(out.facts[0].rule, RuleId(1));
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
