//! Rule-set-scale differential for the literal-sequence confirmation path.
//!
//! E7's 20,000 synthetic rules plus the analyst pack run through the
//! literal-scan executor, as a server runs them; afterwards no rule pattern
//! may have compiled an NFA program or built a lazy DFA (every one is a
//! literal sequence, answered by substring search). Then every rule the
//! literal scan admits on each title is confirmed twice: by the rule's own
//! regex, and by `find` on the same pattern compiled afresh, which always
//! runs the Pike VM over the compiled program. The executor-vs-naive
//! differential cannot catch a matcher bug — both sides call `is_match`.
//!
//! Titles: generated ones, each also upper-cased and with a `\n` spliced in
//! for a space (`.` never crosses it). A debug build checks a tenth of them.

use rulekit_bench::exp::execution::synthetic_rules;
use rulekit_bench::setup::{analyst_rules, world, Scale};
use rulekit_core::{LiteralScanExecutor, PreparedProduct, RuleExecutor};
use rulekit_data::Product;
use rulekit_regex::{AhoCorasick, Regex};
use std::collections::HashMap;

fn titles() -> usize {
    if cfg!(debug_assertions) {
        200
    } else {
        2_000
    }
}

/// `title` with its middle space turned into a line break.
fn spliced(title: &str) -> String {
    let spaces: Vec<usize> = title.match_indices(' ').map(|(i, _)| i).collect();
    match spaces.get(spaces.len() / 2) {
        Some(&at) => format!("{}\n{}", &title[..at], &title[at + 1..]),
        None => format!("{title}\n{title}"),
    }
}

#[test]
fn admitted_rule_patterns_confirm_like_the_pike_vm_and_build_no_engine() {
    let scale = Scale { train_items: 100, eval_items: titles(), seed: 41 };
    let (taxonomy, mut generator) = world(scale);
    let mut rules = analyst_rules(&taxonomy);
    rules.extend(synthetic_rules(&taxonomy, 20_000));
    let base: Vec<Product> =
        generator.generate(scale.eval_items).into_iter().map(|i| i.product).collect();
    let mut products = base.clone();
    for p in &base {
        products.push(Product { title: p.title.to_uppercase(), ..p.clone() });
        products.push(Product { title: spliced(&p.title), ..p.clone() });
    }

    let executor = LiteralScanExecutor::new(rules.clone());
    let fired: usize = products.iter().map(|p| executor.matching_rules(p).len()).sum();
    assert!(fired > 0, "no rule fired");

    let regexes: Vec<&Regex> = rules.iter().filter_map(|r| r.condition.title_regex()).collect();
    assert!(regexes.len() > 20_000, "{} title rules", regexes.len());
    for re in &regexes {
        assert!(re.is_literal_sequence(), "{:?} is not a literal sequence", re.pattern());
        assert!(!re.has_program() && !re.has_dfa(), "{:?} built an engine", re.pattern());
    }

    // Admission as the literal scan decides it: every clause of a rule's
    // literal CNF occurs in the folded title. Each rule is found through the
    // literals of its first clause.
    let cnfs: Vec<Vec<Vec<String>>> = regexes.iter().map(|re| re.required_literals()).collect();
    let mut literal_ids: HashMap<&str, u32> = HashMap::new();
    let mut literals: Vec<&str> = Vec::new();
    for literal in cnfs.iter().flatten().flatten() {
        literal_ids.entry(literal.as_str()).or_insert_with(|| {
            literals.push(literal.as_str());
            literals.len() as u32 - 1
        });
    }
    let mut rules_by_literal: Vec<Vec<usize>> = vec![Vec::new(); literals.len()];
    let mut unindexed = Vec::new();
    for (rule, cnf) in cnfs.iter().enumerate() {
        match cnf.first() {
            Some(clause) => {
                for literal in clause {
                    rules_by_literal[literal_ids[literal.as_str()] as usize].push(rule);
                }
            }
            None => unindexed.push(rule),
        }
    }
    let automaton = AhoCorasick::new(&literals);
    let fresh: Vec<Regex> =
        regexes.iter().map(|re| Regex::with_options(re.pattern(), re.options()).unwrap()).collect();

    let (mut checked, mut matched) = (0usize, 0usize);
    let mut present = vec![false; literals.len()];
    let mut seen = vec![false; regexes.len()];
    for product in &products {
        let prepared = PreparedProduct::new(product);
        present.iter_mut().for_each(|p| *p = false);
        automaton.scan(prepared.title_lower(), |id| present[id as usize] = true);
        let mut candidates = unindexed.clone();
        for id in (0..literals.len()).filter(|&id| present[id]) {
            for &rule in &rules_by_literal[id] {
                if !seen[rule] {
                    seen[rule] = true;
                    candidates.push(rule);
                }
            }
        }
        for &rule in &candidates {
            seen[rule] = false;
            let admitted = cnfs[rule]
                .iter()
                .all(|clause| clause.iter().any(|l| present[literal_ids[l.as_str()] as usize]));
            if !admitted {
                continue;
            }
            let title = &product.title;
            let verdict = regexes[rule].is_match(title);
            assert_eq!(
                verdict,
                fresh[rule].find(title).is_some(),
                "pattern {:?} on {title:?}",
                regexes[rule].pattern()
            );
            checked += 1;
            matched += usize::from(verdict);
        }
    }
    eprintln!(
        "{checked} admitted candidates over {} titles ({:.1} per title), {matched} matched",
        products.len(),
        checked as f64 / products.len() as f64
    );
    assert!(matched > 0 && matched < checked, "{matched} of {checked} matched");
    for re in &regexes {
        assert!(!re.has_program() && !re.has_dfa(), "{:?} built an engine", re.pattern());
    }
}
