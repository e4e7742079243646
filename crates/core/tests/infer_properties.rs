//! Property wall for the fact-inference tier.
//!
//! Three guarantees the engine documents, verified mechanically over
//! generated rule sets:
//!
//! 1. **Confluence** — the fixpoint is independent of rule evaluation
//!    order. Shuffling or reversing the rule vector (rule ids travel with
//!    their rules) never changes the derived facts, the round count, or
//!    the bound flag, even when rules tie on priority and confidence.
//! 2. **Termination** — chaining always stops within
//!    `min(max_rounds, #rules)` rounds, on cyclic and self-referential
//!    rule graphs included, and never panics.
//! 3. **Monotonicity** — a fact name is written at most once, and names
//!    already present as product attributes are never rewritten.
//!
//! A differential half holds the engine, which runs fact rules on the
//! literal-scan executor, to [`reference`]: the chaining loop as it was
//! before, evaluating every fact rule with the tree-walk in every round.

mod tree_walk;

use proptest::prelude::*;
use rulekit_core::{
    AggregateStore, InferFact, InferenceEngine, PreparedProduct, Rule, RuleAction, RuleId,
    RuleMeta, RuleParser, DEFAULT_MAX_ROUNDS,
};
use rulekit_data::{Product, Taxonomy, VendorId};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Fact-name vocabulary: small so generated rules collide and chain.
const NAMES: [&str; 6] = ["fa", "fb", "fc", "fd", "fe", "ff"];

fn product(attrs: &[(&str, &str)]) -> Product {
    Product {
        id: 0,
        title: "generated".into(),
        description: String::new(),
        attributes: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        vendor: VendorId(0),
    }
}

/// One generated rule, encoded as tuple indices (see `render_rule`).
type RuleTuple = (usize, usize, usize, u32, i32, usize);

fn rule_tuple() -> impl Strategy<Value = RuleTuple> {
    (0..NAMES.len(), 0..5usize, 0..NAMES.len(), 0..3u32, -2..3i32, 0..4usize)
}

/// Renders a tuple to an `infer:` DSL line. Antecedents reference the
/// product seed and other fact names — including negated and
/// self-referential forms — so generated sets contain chains, cycles, and
/// one-round ties.
fn render_rule((name, ante, target, value, prio, conf): RuleTuple) -> String {
    let name = NAMES[name];
    let target = NAMES[target];
    let ante = match ante {
        0 => "has(seed)".to_string(),
        1 => format!("has({target})"),
        2 => format!("{target} == \"1\""),
        3 => format!("!has({target})"),
        _ => format!("has(seed) && !has({target})"),
    };
    let conf = [1.0, 0.9, 0.5, 0.25][conf];
    format!("infer: {ante} => fact {name} = {value} @{conf} ^{prio}")
}

/// Parses DSL lines into repository rules with position-based ids.
fn parse_rules(lines: &[String]) -> Vec<Rule> {
    let parser = RuleParser::new(Taxonomy::builtin());
    lines
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
        .collect()
}

/// Deterministic Fisher–Yates driven by an xorshift stream.
fn shuffle<T>(v: &mut [T], mut s: u64) {
    s |= 1;
    for i in (1..v.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let j = (s % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// One derived fact as (name, value, confidence, rule id, round).
type FactKey = (String, String, u32, u64, usize);

/// The comparable fingerprint of one chaining run: facts, rounds, bound hit.
type Fingerprint = (Vec<FactKey>, usize, bool);

fn fingerprint(engine: &InferenceEngine, product: &Product) -> Fingerprint {
    fingerprint_with(engine, product, &[], None)
}

fn fingerprint_with(
    engine: &InferenceEngine,
    product: &Product,
    seeds: &[(String, String)],
    aggregates: Option<Arc<AggregateStore>>,
) -> Fingerprint {
    let out = engine.infer(product, seeds, aggregates);
    let facts = out
        .facts
        .iter()
        .map(|f| (f.name.clone(), f.value.clone(), f.confidence_ppm, f.rule.0, f.round))
        .collect();
    (facts, out.rounds, out.hit_bound)
}

/// Folds an attribute name the way `PreparedProduct` does.
fn fold(name: &str) -> String {
    let p = Product { attributes: vec![(name.to_string(), String::new())], ..product(&[]) };
    let prepared = PreparedProduct::new(&p);
    let (folded, _) = prepared.attrs_lower().next().expect("one attribute");
    folded.to_string()
}

/// The chaining loop before fact rules ran on the engine, kept as the
/// oracle: every fact rule, evaluated by the tree-walk, in every round, with
/// the same occupied-name filter, conflict order and round bound.
fn reference(
    rules: &[Rule],
    max_rounds: usize,
    product: &Product,
    seeds: &[(String, String)],
    aggregates: Option<Arc<AggregateStore>>,
) -> Fingerprint {
    let facts: Vec<(&Rule, &InferFact)> = rules
        .iter()
        .filter_map(|r| match &r.action {
            RuleAction::Infer(fact) => Some((r, fact)),
            _ => None,
        })
        .collect();
    let mut out: Fingerprint = (Vec::new(), 0, false);
    if facts.is_empty() {
        return out;
    }
    let mut occupied: HashSet<String> = product.attributes.iter().map(|(k, _)| fold(k)).collect();
    let mut wm = product.clone();
    for (name, value) in seeds {
        let folded = fold(name);
        if occupied.insert(folded.clone()) {
            wm.attributes.push((folded, value.clone()));
        }
    }
    let beats = |(ra, a): (&Rule, &InferFact), (rb, b): (&Rule, &InferFact)| {
        (b.priority, b.confidence_ppm)
            .cmp(&(a.priority, a.confidence_ppm))
            .then_with(|| a.value.cmp(&b.value))
            .then_with(|| ra.id.cmp(&rb.id))
            .is_lt()
    };
    let round_winners = |wm: &Product, occupied: &HashSet<String>| {
        let prepared = PreparedProduct::with_aggregates(wm, aggregates.clone());
        let mut winners: BTreeMap<String, (&Rule, &InferFact)> = BTreeMap::new();
        for &(rule, fact) in &facts {
            if occupied.contains(&fact.name) || !tree_walk::matches(&rule.condition, &prepared) {
                continue;
            }
            winners
                .entry(fact.name.clone())
                .and_modify(|incumbent| {
                    if beats((rule, fact), *incumbent) {
                        *incumbent = (rule, fact);
                    }
                })
                .or_insert((rule, fact));
        }
        winners
    };
    for round in 1..=max_rounds.min(facts.len()).max(1) {
        let winners = round_winners(&wm, &occupied);
        if winners.is_empty() {
            return out;
        }
        out.1 = round;
        for (name, (rule, fact)) in winners {
            occupied.insert(name.clone());
            wm.attributes.push((name.clone(), fact.value.clone()));
            out.0.push((name, fact.value.clone(), fact.confidence_ppm, rule.id.0, round));
        }
    }
    out.2 = !round_winners(&wm, &occupied).is_empty();
    out
}

fn panel() -> Vec<Product> {
    vec![
        product(&[]),
        product(&[("seed", "1")]),
        product(&[("seed", "1"), ("fa", "preset")]),
        product(&[("fb", "1"), ("fd", "0")]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shuffled and reversed rule vectors reach the identical fixpoint:
    /// same facts (down to the winning rule id and round), same round
    /// count, same bound flag.
    #[test]
    fn fixpoint_is_independent_of_rule_order(
        tuples in prop::collection::vec(rule_tuple(), 1..12),
        seed in 0u64..u64::MAX,
    ) {
        let lines: Vec<String> = tuples.into_iter().map(render_rule).collect();
        let rules = parse_rules(&lines);

        let mut shuffled = rules.clone();
        shuffle(&mut shuffled, seed);
        let mut reversed = rules.clone();
        reversed.reverse();

        let a = InferenceEngine::from_rules(&rules);
        let b = InferenceEngine::from_rules(&shuffled);
        let c = InferenceEngine::from_rules(&reversed);
        for p in panel() {
            let fa = fingerprint(&a, &p);
            prop_assert_eq!(&fa, &fingerprint(&b, &p), "shuffle changed the fixpoint");
            prop_assert_eq!(&fa, &fingerprint(&c, &p), "reversal changed the fixpoint");
        }
    }

    /// Chaining terminates within `min(max_rounds, #rules)` rounds, writes
    /// each fact name at most once, and never touches an occupied name.
    #[test]
    fn chaining_terminates_and_names_are_write_once(
        tuples in prop::collection::vec(rule_tuple(), 1..16),
        max_rounds in 1usize..6,
    ) {
        let lines: Vec<String> = tuples.into_iter().map(render_rule).collect();
        let rules = parse_rules(&lines);
        let n = rules.len();
        let engine = InferenceEngine::from_rules(&rules).with_max_rounds(max_rounds);
        for p in panel() {
            let out = engine.infer(&p, &[], None);
            let bound = max_rounds.min(n).max(1);
            prop_assert!(out.rounds <= bound, "{} rounds > bound {}", out.rounds, bound);
            prop_assert!(out.facts.len() <= NAMES.len());
            let mut names: Vec<&str> = out.facts.iter().map(|f| f.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            prop_assert_eq!(before, names.len(), "a fact name was written twice");
            for f in &out.facts {
                prop_assert!(f.round >= 1 && f.round <= out.rounds);
                prop_assert!(
                    !p.attributes.iter().any(|(k, _)| k.eq_ignore_ascii_case(&f.name)),
                    "derived fact {} shadows a product attribute", f.name
                );
            }
        }
    }

    /// Rule graphs built *only* from cyclic and self-referential
    /// dependencies (every antecedent reads a fact name, including the
    /// rule's own) terminate without panicking, and the default bound is
    /// never the thing that stopped them.
    #[test]
    fn cyclic_and_self_referential_graphs_terminate(
        tuples in prop::collection::vec(
            (0..NAMES.len(), 0..NAMES.len(), 0..2usize, 0..3u32),
            1..14,
        ),
    ) {
        let lines: Vec<String> = tuples
            .into_iter()
            .map(|(name, target, neg, value)| {
                let ante = match neg {
                    0 => format!("has({})", NAMES[target]),
                    _ => format!("!has({})", NAMES[target]),
                };
                format!("infer: {ante} => fact {} = {value}", NAMES[name])
            })
            .collect();
        let rules = parse_rules(&lines);
        let engine = InferenceEngine::from_rules(&rules);
        for p in panel() {
            let out = engine.infer(&p, &[], None);
            prop_assert!(out.rounds <= rules.len().min(DEFAULT_MAX_ROUNDS));
            prop_assert!(!out.hit_bound, "write-once chaining cannot exhaust the default bound");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine derives what the reference loop derives — the same facts
    /// from the same winning rules in the same rounds, the same round count
    /// and the same bound flag — under every round bound.
    #[test]
    fn engine_agrees_with_the_reference_loop(
        tuples in prop::collection::vec(rule_tuple(), 1..16),
        max_rounds in 1usize..6,
    ) {
        let lines: Vec<String> = tuples.into_iter().map(render_rule).collect();
        let rules = parse_rules(&lines);
        let engine = InferenceEngine::from_rules(&rules).with_max_rounds(max_rounds);
        for p in panel() {
            prop_assert_eq!(
                fingerprint(&engine, &p),
                reference(&rules, max_rounds, &p, &[], None),
                "on {:?}", p.attributes
            );
        }
    }
}

/// The feed workload's shape: the benchmark's 4-line chaining pack (an ISBN
/// chain, a price guard, a fact gated on `agg("vendor_mismatch_rate") >
/// 0.25`) plus rules over `ie_*` seeds and the title, with the aggregate
/// below, above and absent.
#[test]
fn engine_agrees_with_the_reference_on_the_feed_pack() {
    let lines: Vec<String> = [
        "infer: has(isbn) => fact media = book",
        "infer: media == \"book\" => fact shelved = yes",
        "infer: price < 5 => fact bargain = yes",
        "infer: agg(\"vendor_mismatch_rate\") > 0.25 => fact risky_vendor = yes",
        "infer: ie_brand == \"lego\" => fact kind = toy @0.9",
        "infer: kind == \"toy\" && title ~ /sets?/ => fact aisle = 7 ^1",
        "infer: has(ie_color) && !has(isbn) => fact colored = yes",
    ]
    .map(String::from)
    .to_vec();
    let rules = parse_rules(&lines);
    let engine = InferenceEngine::from_rules(&rules);
    let item =
        |title: &str, attrs: &[(&str, &str)]| Product { title: title.into(), ..product(attrs) };
    let products = [
        item("hardcover novel", &[("ISBN", "9781111111111"), ("Price", "12")]),
        item("LEGO City set 60215", &[("Price", "3.99")]),
        item("bulk lot", &[("Price", "n/a")]),
        item("plain item", &[]),
    ];
    let seeds: [&[(&str, &str)]; 3] =
        [&[], &[("ie_brand", "LEGO")], &[("ie_brand", "lego"), ("IE_Color", "red")]];
    let mut risky = [0, 0];
    for rate in [None, Some(10), Some(90)] {
        let aggregates = rate.map(|percent| {
            let aggs = Arc::new(AggregateStore::new());
            let series = aggs.ratio("vendor_mismatch_rate");
            for i in 0..100 {
                series.record(i < percent);
            }
            aggs
        });
        for p in &products {
            for s in seeds {
                let s: Vec<(String, String)> =
                    s.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
                let got = fingerprint_with(&engine, p, &s, aggregates.clone());
                let want = reference(&rules, DEFAULT_MAX_ROUNDS, p, &s, aggregates.clone());
                assert_eq!(got, want, "{:?} with seeds {s:?}, mismatch rate {rate:?}", p.title);
                if got.0.iter().any(|f| f.0 == "risky_vendor") {
                    risky[usize::from(rate == Some(90))] += 1;
                }
            }
        }
    }
    assert_eq!(risky, [0, products.len() * seeds.len()], "only a rate above 0.25 derives it");
}

/// A self-referential negation (`!has(x) ⇒ x`) fires exactly once: the
/// write occupies the name, so the now-false antecedent cannot oscillate.
#[test]
fn self_referential_negation_fires_once_and_stops() {
    let rules = parse_rules(&["infer: !has(fa) => fact fa = 1".to_string()]);
    let engine = InferenceEngine::from_rules(&rules);
    let out = engine.infer(&product(&[]), &[], None);
    assert_eq!(out.facts.len(), 1);
    assert_eq!(out.rounds, 1);
    assert!(!out.hit_bound);
}

/// Priority ties break on confidence, then value, then rule id — and the
/// winner is the same whichever order the rules are loaded in.
#[test]
fn tie_breaking_is_stable_under_reordering() {
    let lines = [
        "infer: has(seed) => fact k = bbb @0.5".to_string(),
        "infer: has(seed) => fact k = aaa @0.5".to_string(),
    ];
    let forward = InferenceEngine::from_rules(&parse_rules(&lines));
    let mut rev = lines.clone();
    rev.reverse();
    // Reparse reversed but keep the same id→line pairing by swapping ids.
    let mut rules = parse_rules(&rev);
    rules[0].id = RuleId(2);
    rules[1].id = RuleId(1);
    let backward = InferenceEngine::from_rules(&rules);

    let p = product(&[("seed", "1")]);
    let a = forward.infer(&p, &[], None);
    let b = backward.infer(&p, &[], None);
    assert_eq!(a.facts[0].value, "aaa", "value lex asc breaks the tie");
    assert_eq!(a.facts[0].value, b.facts[0].value);
    assert_eq!(a.facts[0].rule, b.facts[0].rule);
}
