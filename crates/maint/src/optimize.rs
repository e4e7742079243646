//! Offline rule-set optimizer (§4 "Rule Execution and Optimization"): an
//! ahead-of-time pass over a compiled rule snapshot that shrinks and
//! reshapes the set **without changing any classification decision**.
//!
//! Production rule stores accrete redundancy — analysts re-add rules that
//! already exist, write specializations of patterns a general rule already
//! covers, and split dictionary blacklists across many rules. None of that
//! changes decisions, but all of it costs execution time (more candidates to
//! confirm per product) and build time (bigger automata). The optimizer
//! runs four passes:
//!
//! 1. **duplicate merge** — rules with byte-identical condition and action
//!    collapse to one; whitelist confidences are *summed* onto the survivor
//!    so the classifier's weight aggregation is bit-for-bit unchanged
//!    (weights are summed per fired rule, so `c₁ + c₂` on one rule equals
//!    `c₁` and `c₂` on two rules that always fire together).
//! 2. **subsumption drop** — rules whose title pattern is formally contained
//!    in a *pure* title rule with the same action are removed
//!    ([`rulekit_regex::touch_subset`] over patterns parsed once per pass,
//!    the same machinery as [`crate::find_subsumptions`], here over both
//!    white- and blacklists).
//!    Blacklist drops are unconditionally exact (the forbidden set is a
//!    union; the subsumer fires whenever the subsumed did). Whitelist drops
//!    change weight sums, so they run only when a guard corpus is supplied:
//!    decisions are re-checked and any rule whose removal changed a decision
//!    is restored (see [`OptimizeReport::restored`]).
//! 3. **dictionary merge** — blacklist rules of the same target type whose
//!    condition is a bare dictionary test merge into one rule over the
//!    entry-set union (a dictionary is one flat literal set; the union
//!    matches exactly when any of the originals did).
//! 4. **selectivity reorder** — conjunctions are re-sorted cheapest-probe
//!    first (attribute lookups before regex/dictionary scans; pure
//!    predicates commute, so confirmation short-circuits earlier at equal
//!    semantics), and, when a corpus is given, whole rules are re-sorted by
//!    measured fire counts so the hot rules' metadata stays cache-resident.
//!
//! The differential guarantee — identical [`RuleClassifier`] decisions on
//! every product — is what makes its output safe to accept as an edit to
//! the rule store.

use crate::subsume::ParsedPatterns;
use rulekit_core::{
    Condition, Dictionary, ExecContext, ExecutorKind, PreparedProduct, Program, Rule, RuleAction,
    RuleClassifier, RuleVerdict,
};
use rulekit_data::{Product, TypeId};
use rulekit_regex::Containment;
use std::collections::HashMap;
use std::sync::Arc;

/// Pass toggles and bounds for [`optimize`].
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Collapse byte-identical (condition, action) rules, summing whitelist
    /// confidence onto the survivor.
    pub merge_duplicates: bool,
    /// Drop rules formally subsumed by a pure title rule with the same
    /// action (whitelist drops additionally require a guard corpus).
    pub drop_subsumed: bool,
    /// Merge same-type blacklist dictionary rules into one union dictionary.
    pub merge_dictionaries: bool,
    /// Re-sort conjuncts cheapest-first and (with a corpus) rules by
    /// measured selectivity.
    pub reorder: bool,
    /// Containment checks attempted per rule in the subsumption pass. The
    /// check is quadratic per type group without a cap; 32 candidates keeps
    /// 100k-rule optimization in linear territory while still catching
    /// every realistic specialize-of-a-general-pattern chain.
    pub max_subsumers_per_rule: usize,
    /// Guard-loop iterations before giving up and restoring every remaining
    /// whitelist drop wholesale.
    pub max_restore_rounds: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            merge_duplicates: true,
            drop_subsumed: true,
            merge_dictionaries: true,
            reorder: true,
            max_subsumers_per_rule: 32,
            max_restore_rounds: 4,
        }
    }
}

/// What [`optimize`] did, for logs, metrics, and bench output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    /// Rules in the input snapshot.
    pub rules_before: usize,
    /// Rules in the optimized snapshot.
    pub rules_after: usize,
    /// Rules absorbed by duplicate or dictionary merging.
    pub merged: usize,
    /// Rules dropped as subsumed (net of restorations).
    pub dropped: usize,
    /// Whitelist drops undone by the corpus guard.
    pub restored: usize,
    /// Rules whose conjunct order changed in the reorder pass.
    pub reordered: usize,
}

/// Optimizes a rule snapshot. Returns the new snapshot and a report.
///
/// `corpus` gates the lossy-without-evidence transformations: whitelist
/// subsumption drops and measured rule reordering only run when products
/// are supplied, and every whitelist drop is verified to leave the
/// classifier's decision on each corpus product — the ordered surviving
/// candidate list plus the forbidden and restricted sets — unchanged.
/// Without a corpus, only the provably-exact passes run.
pub fn optimize(
    rules: Vec<Rule>,
    opts: &OptimizeOptions,
    corpus: Option<&[Product]>,
) -> (Vec<Rule>, OptimizeReport) {
    let mut report = OptimizeReport { rules_before: rules.len(), ..Default::default() };

    let mut rules = rules;
    // Deterministic survivor selection: process in id order so "keep the
    // older rule" falls out of iteration order.
    rules.sort_by_key(|r| r.id);

    if opts.merge_duplicates {
        rules = merge_duplicates(rules, &mut report);
    }
    if opts.merge_dictionaries {
        rules = merge_blacklist_dictionaries(rules, &mut report);
    }
    if opts.drop_subsumed {
        rules = drop_subsumed(rules, opts, corpus, &mut report);
    }
    if opts.reorder {
        reorder(&mut rules, corpus, &mut report);
    }

    report.rules_after = rules.len();
    (rules, report)
}

/// The decision a product receives: ordered surviving candidates (type ids
/// only — weights shift under merging but order is what downstream
/// consumes), forbidden set, restriction set. Two rule sets are
/// decision-equivalent on a corpus iff these agree on every product.
type Decision = (Vec<TypeId>, Vec<TypeId>, Option<Vec<TypeId>>);

fn decision(verdict: &RuleVerdict) -> Decision {
    let candidates: Vec<TypeId> =
        verdict.final_candidates().into_iter().map(|(ty, _)| ty).collect();
    let mut forbidden = verdict.forbidden.clone();
    forbidden.sort_unstable();
    let restricted = verdict.restricted.clone().map(|mut allowed| {
        allowed.sort_unstable();
        allowed
    });
    (candidates, forbidden, restricted)
}

fn decisions_for(rules: &[Rule], corpus: &[Product]) -> Vec<Decision> {
    let classifier = RuleClassifier::over(ExecutorKind::LiteralScan.build(rules.to_vec()));
    corpus.iter().map(|p| decision(&classifier.classify(p))).collect()
}

/// Pass 1: collapse rules with identical condition and action. Whitelist
/// survivors inherit the sum of their duplicates' confidences, which keeps
/// the classifier's per-type weight sums exactly unchanged.
fn merge_duplicates(rules: Vec<Rule>, report: &mut OptimizeReport) -> Vec<Rule> {
    let mut kept: Vec<Rule> = Vec::with_capacity(rules.len());
    let mut index: HashMap<String, usize> = HashMap::with_capacity(rules.len());
    for rule in rules {
        let key = format!("{}\u{1}{:?}", rule.condition, rule.action);
        match index.get(&key) {
            Some(&i) => {
                if matches!(rule.action, RuleAction::Assign(_)) {
                    kept[i].meta.confidence += rule.meta.confidence;
                }
                report.merged += 1;
            }
            None => {
                index.insert(key, kept.len());
                kept.push(rule);
            }
        }
    }
    kept
}

/// Pass 3: merge blacklist rules of the same target type whose condition is
/// a bare dictionary test. The forbidden set is a union over fired rules,
/// and a dictionary fires iff any entry occurs in the title, so one rule
/// over the entry union forbids exactly when any original did.
fn merge_blacklist_dictionaries(rules: Vec<Rule>, report: &mut OptimizeReport) -> Vec<Rule> {
    let mut first_of_type: HashMap<TypeId, usize> = HashMap::new();
    let mut absorb: Vec<(usize, usize)> = Vec::new();
    for (i, rule) in rules.iter().enumerate() {
        let RuleAction::Forbid(ty) = rule.action else { continue };
        if !matches!(rule.condition, Condition::InDictionary(_)) {
            continue;
        }
        match first_of_type.get(&ty) {
            Some(&head) => absorb.push((head, i)),
            None => {
                first_of_type.insert(ty, i);
            }
        }
    }
    if absorb.is_empty() {
        return rules;
    }

    let mut unions: HashMap<usize, (Vec<Arc<Dictionary>>, usize)> = HashMap::new();
    for &(head, i) in &absorb {
        let Condition::InDictionary(dict) = &rules[i].condition else { unreachable!() };
        let entry = unions.entry(head).or_insert_with(|| (Vec::new(), 0));
        entry.0.push(dict.clone());
        entry.1 += 1;
    }

    let dropped: std::collections::HashSet<usize> = absorb.iter().map(|&(_, i)| i).collect();
    let mut kept = Vec::with_capacity(rules.len() - dropped.len());
    for (i, mut rule) in rules.into_iter().enumerate() {
        if dropped.contains(&i) {
            report.merged += 1;
            continue;
        }
        if let Some((extra, absorbed)) = unions.remove(&i) {
            let Condition::InDictionary(head_dict) = &rule.condition else { unreachable!() };
            let mut entries: Vec<&str> = head_dict.entries.iter().map(String::as_str).collect();
            for dict in &extra {
                entries.extend(dict.entries.iter().map(String::as_str));
            }
            let name = format!("{}+{}", head_dict.name, absorbed);
            rule.source = format!("{} [merged {} dictionaries]", rule.source, absorbed + 1);
            rule.condition = Condition::InDictionary(Arc::new(Dictionary::new(name, entries)));
        }
        kept.push(rule);
    }
    kept
}

/// Whether a condition is exactly one title-regex test (no other
/// conjuncts) — the shape that makes "this rule fires" equivalent to "the
/// title matches this pattern", which is what lets pattern containment
/// stand in for rule subsumption.
fn pure_title(rule: &Rule) -> bool {
    match &rule.condition {
        Condition::TitleMatches(_) => true,
        Condition::All(conds) => conds.len() == 1 && matches!(conds[0], Condition::TitleMatches(_)),
        _ => false,
    }
}

/// Pass 2: bounded formal subsumption. For each (action-kind, target-type)
/// group, rules whose title pattern is contained in a pure title rule's
/// pattern are dropped. Pairing is bounded: subsumer candidates are the
/// group's pure title rules, shortest pattern first (general patterns are
/// short), prefiltered to those whose pattern occurs verbatim inside the
/// subsumed pattern (the specialize-by-prefixing idiom, e.g.
/// `denim.*jeans?` ⊒ `jeans?`), and capped at
/// [`OptimizeOptions::max_subsumers_per_rule`] containment checks per rule.
fn drop_subsumed(
    rules: Vec<Rule>,
    opts: &OptimizeOptions,
    corpus: Option<&[Product]>,
    report: &mut OptimizeReport,
) -> Vec<Rule> {
    // (is_whitelist, type) -> indices. Restrictions are never dropped.
    let mut groups: HashMap<(bool, TypeId), Vec<usize>> = HashMap::new();
    for (i, rule) in rules.iter().enumerate() {
        let key = match rule.action {
            RuleAction::Assign(ty) => (true, ty),
            RuleAction::Forbid(ty) => (false, ty),
            RuleAction::Restrict(_) | RuleAction::Infer(_) => continue,
        };
        groups.entry(key).or_default().push(i);
    }

    let patterns = ParsedPatterns::new(rules.iter().map(|r| r.condition.title_regex()));
    let mut drop_black: Vec<usize> = Vec::new();
    let mut drop_white: Vec<usize> = Vec::new();
    for ((whitelist, _ty), members) in &groups {
        if members.len() < 2 {
            continue;
        }
        if *whitelist && corpus.is_none() {
            // Whitelist drops change weight sums; without a guard corpus we
            // cannot verify decisions, so skip the whole group.
            continue;
        }
        let mut subsumers: Vec<usize> =
            members.iter().copied().filter(|&i| pure_title(&rules[i])).collect();
        subsumers.sort_by_key(|&i| {
            rules[i].condition.title_regex().map(|re| re.pattern().len()).unwrap_or(usize::MAX)
        });
        if subsumers.is_empty() {
            continue;
        }
        for &bi in members {
            let Some(re_b) = rules[bi].condition.title_regex() else { continue };
            let mut tested = 0usize;
            for &ai in &subsumers {
                if ai == bi {
                    continue;
                }
                let re_a = rules[ai].condition.title_regex().expect("pure title rule");
                // Prefilter: specializations extend the general pattern, so
                // its source appears verbatim inside theirs. This is what
                // keeps the pass linear-ish; patterns related in subtler
                // ways are find_subsumptions' (offline, unbounded) job.
                if !re_b.pattern().contains(re_a.pattern()) {
                    continue;
                }
                if tested >= opts.max_subsumers_per_rule {
                    break;
                }
                tested += 1;
                if patterns.subsumed(bi, ai) != Containment::Subset {
                    continue;
                }
                // Equivalent patterns: keep the older rule, never both ways.
                let equivalent = re_a.pattern() == re_b.pattern()
                    || patterns.subsumed(ai, bi) == Containment::Subset;
                if equivalent && rules[ai].id > rules[bi].id {
                    continue;
                }
                if *whitelist {
                    drop_white.push(bi);
                } else {
                    drop_black.push(bi);
                }
                break;
            }
        }
    }

    if drop_black.is_empty() && drop_white.is_empty() {
        return rules;
    }

    // Blacklist drops are exact (forbidden-set union; the subsumer fires
    // whenever the subsumed did). Whitelist drops are applied, then guarded.
    let baseline = corpus.filter(|_| !drop_white.is_empty()).map(|c| (c, decisions_for(&rules, c)));
    let mut removed: Vec<bool> = vec![false; rules.len()];
    for &i in drop_black.iter().chain(&drop_white) {
        removed[i] = true;
    }

    if let Some((corpus, baseline)) = baseline {
        // Each pending drop is compiled once, for every round that tests it.
        let mut pending: Vec<(usize, Arc<Program>)> =
            drop_white.iter().map(|&i| (i, rules[i].condition.compile())).collect();
        for round in 0..=opts.max_restore_rounds {
            if pending.is_empty() {
                break;
            }
            let current: Vec<Rule> = rules
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed[*i])
                .map(|(_, r)| r.clone())
                .collect();
            let after = decisions_for(&current, corpus);
            let mismatched: Vec<PreparedProduct> = corpus
                .iter()
                .zip(baseline.iter().zip(&after))
                .filter(|(_, (b, a))| b != a)
                .map(|(p, _)| PreparedProduct::new(p))
                .collect();
            if mismatched.is_empty() {
                break;
            }
            // Last round (or no progress): restore every remaining drop —
            // that provably returns the whitelist phase to its pre-drop
            // state, so decisions match again.
            let all: Vec<usize> = pending.iter().map(|&(i, _)| i).collect();
            let restore: Vec<usize> = if round == opts.max_restore_rounds {
                all.clone()
            } else {
                let contexts: Vec<ExecContext> = mismatched.iter().map(ExecContext::new).collect();
                pending
                    .iter()
                    .filter(|(_, program)| contexts.iter().any(|ctx| program.eval(ctx)))
                    .map(|&(i, _)| i)
                    .collect()
            };
            let restore = if restore.is_empty() { all } else { restore };
            for &i in &restore {
                removed[i] = false;
            }
            report.restored += restore.len();
            pending.retain(|(i, _)| !restore.contains(i));
        }
    }

    let mut kept = Vec::with_capacity(rules.len());
    for (i, rule) in rules.into_iter().enumerate() {
        if removed[i] {
            report.dropped += 1;
        } else {
            kept.push(rule);
        }
    }
    kept
}

/// Static cost class of a conjunct: how expensive one evaluation is against
/// a prepared product. Attribute probes are hash lookups; dictionary and
/// regex tests scan the title; compiled expressions can do anything.
fn conjunct_cost(cond: &Condition) -> u8 {
    match cond {
        Condition::AttrExists(_) => 0,
        Condition::NumCompare { .. } => 1,
        Condition::AttrValueIn { .. } => 2,
        Condition::TitleMatches(_) => 3,
        Condition::InDictionary(_) => 4,
        Condition::Expr(_) => 5,
        Condition::All(_) => 6,
    }
}

/// Pass 4: confirmation-order rewrite. Conjunctions short-circuit left to
/// right and every conjunct is a pure predicate, so sorting cheap probes
/// first changes cost, never outcome. With a corpus, whole rules are then
/// stably re-sorted by measured fire count (descending) — phase
/// aggregation is commutative, so rule order is free to optimize for
/// locality.
fn reorder(rules: &mut [Rule], corpus: Option<&[Product]>, report: &mut OptimizeReport) {
    for rule in rules.iter_mut() {
        if let Condition::All(conds) = &mut rule.condition {
            let before: Vec<u8> = conds.iter().map(conjunct_cost).collect();
            let mut sorted = before.clone();
            sorted.sort();
            if before != sorted {
                conds.sort_by_key(conjunct_cost);
                report.reordered += 1;
            }
        }
    }

    let Some(corpus) = corpus else { return };
    if corpus.is_empty() || rules.is_empty() {
        return;
    }
    let executor = ExecutorKind::LiteralScan.build(rules.to_vec());
    let mut fires: HashMap<rulekit_core::RuleId, u64> = HashMap::with_capacity(rules.len());
    for product in corpus {
        for id in executor.matching_rules(product) {
            *fires.entry(id).or_insert(0) += 1;
        }
    }
    let key = |r: &Rule| std::cmp::Reverse(fires.get(&r.id).copied().unwrap_or(0));
    let already = rules.windows(2).all(|w| key(&w[0]) <= key(&w[1]));
    if !already {
        rules.sort_by_key(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulekit_core::{RuleMeta, RuleParser, RuleRepository};
    use rulekit_data::Taxonomy;

    fn parser() -> RuleParser {
        let mut p = RuleParser::new(Taxonomy::builtin());
        p.register_dictionary(Dictionary::new("gadget_words", ["phone", "tablet"]));
        p.register_dictionary(Dictionary::new("gizmo_words", ["charger", "dongle"]));
        p
    }

    fn rules(lines: &[&str]) -> Vec<Rule> {
        let p = parser();
        let repo = RuleRepository::new();
        for line in lines {
            repo.add(p.parse_rule(line).unwrap(), RuleMeta::default());
        }
        repo.enabled_snapshot()
    }

    fn product(title: &str) -> Product {
        Product {
            id: 0,
            title: title.into(),
            description: String::new(),
            attributes: vec![("Price".to_string(), "42".to_string())],
            vendor: rulekit_data::VendorId(0),
        }
    }

    fn decisions(rules: &[Rule], corpus: &[Product]) -> Vec<Decision> {
        decisions_for(rules, corpus)
    }

    #[test]
    fn duplicates_merge_and_transfer_confidence() {
        let rs = rules(&["jeans? -> jeans", "jeans? -> jeans", "rings? -> rings"]);
        let corpus = [product("blue jeans"), product("gold rings")];
        let before = decisions(&rs, &corpus);
        let (out, report) = optimize(rs, &OptimizeOptions::default(), None);
        assert_eq!(out.len(), 2);
        assert_eq!(report.merged, 1);
        let merged = out.iter().find(|r| r.source.contains("jeans")).unwrap();
        assert!((merged.meta.confidence - 2.0).abs() < 1e-12, "summed confidence");
        assert_eq!(decisions(&out, &corpus), before);
    }

    #[test]
    fn blacklist_subsumption_drops_without_corpus() {
        let rs = rules(&["denim.*jeans? -> NOT shorts", "jeans? -> NOT shorts"]);
        let corpus = [product("denim jeans"), product("jean shorts"), product("cargo shorts")];
        let before = decisions(&rs, &corpus);
        let (out, report) = optimize(rs, &OptimizeOptions::default(), None);
        assert_eq!(report.dropped, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].source, "jeans? -> NOT shorts");
        assert_eq!(decisions(&out, &corpus), before);
    }

    #[test]
    fn whitelist_subsumption_needs_corpus() {
        let rs = rules(&["denim.*jeans? -> jeans", "jeans? -> jeans"]);
        let (out, report) = optimize(rs.clone(), &OptimizeOptions::default(), None);
        assert_eq!(report.dropped, 0, "no corpus, no whitelist drops");
        assert_eq!(out.len(), 2);

        let corpus = [product("denim jeans"), product("blue jeans")];
        let before = decisions(&rs, &corpus);
        let (out, report) = optimize(rs, &OptimizeOptions::default(), Some(&corpus));
        assert_eq!(report.dropped, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(decisions(&out, &corpus), before);
    }

    #[test]
    fn corpus_guard_restores_decision_changing_drops() {
        // Dropping `denim.*jeans? -> jeans` halves jeans' weight on "denim
        // jeans" products; competing shorts rules with total weight 2 then
        // overtake it, so the guard must restore the drop.
        let rs = rules(&[
            "denim.*jeans? -> jeans",
            "jeans? -> jeans",
            "denim -> shorts",
            "denim -> shorts",
        ]);
        let corpus = [product("denim jeans"), product("capri jeans")];
        let before = decisions(&rs, &corpus);
        let (out, report) = optimize(rs, &OptimizeOptions::default(), Some(&corpus));
        assert_eq!(report.restored, 1);
        assert_eq!(report.dropped, 0);
        assert_eq!(out.len(), 3, "duplicate shorts rule merged, nothing else removed");
        assert_eq!(decisions(&out, &corpus), before);
    }

    #[test]
    fn blacklist_dictionaries_union() {
        let rs = rules(&[
            "dict(gadget_words) -> NOT books",
            "dict(gizmo_words) -> NOT books",
            "paperback -> books",
        ]);
        let corpus = [product("phone case"), product("usb dongle"), product("paperback novel")];
        let before = decisions(&rs, &corpus);
        let (out, report) = optimize(rs, &OptimizeOptions::default(), None);
        assert_eq!(report.merged, 1);
        assert_eq!(out.len(), 2);
        let dict_rule = out
            .iter()
            .find_map(|r| match &r.condition {
                Condition::InDictionary(d) => Some(d.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(dict_rule.entries.len(), 4, "union of both entry sets");
        assert_eq!(decisions(&out, &corpus), before);
    }

    #[test]
    fn conjunctions_reorder_cheap_probe_first() {
        let rs = rules(&["laptop and price < 100 -> laptop computers"]);
        let corpus = [product("laptop sleeve")];
        let before = decisions(&rs, &corpus);
        let (out, report) = optimize(rs, &OptimizeOptions::default(), None);
        assert_eq!(report.reordered, 1);
        let Condition::All(conds) = &out[0].condition else { panic!("conjunction expected") };
        assert!(
            matches!(conds[0], Condition::NumCompare { .. }),
            "numeric probe hoisted before the regex"
        );
        assert_eq!(decisions(&out, &corpus), before);
    }

    #[test]
    fn corpus_reorder_puts_hot_rules_first() {
        let rs = rules(&["rare gem -> rings", "jeans? -> jeans"]);
        let corpus = [product("blue jeans"), product("skinny jeans"), product("rare gem")];
        let (out, _) = optimize(rs, &OptimizeOptions::default(), Some(&corpus));
        assert_eq!(out[0].source, "jeans? -> jeans", "hot rule sorted first");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let (out, report) = optimize(Vec::new(), &OptimizeOptions::default(), None);
        assert!(out.is_empty());
        assert_eq!(report.rules_after, 0);
        let rs = rules(&["jeans? -> jeans"]);
        let (out, report) = optimize(rs, &OptimizeOptions::default(), None);
        assert_eq!(out.len(), 1);
        assert_eq!(report.merged + report.dropped, 0);
    }
}
