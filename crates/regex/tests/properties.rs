//! Property-based tests for the regex engine.
//!
//! The central oracle is a naive backtracking matcher over the same AST
//! (`tests/oracle/`); the Pike VM must agree with it on `is_match` for
//! arbitrary generated patterns and texts. Further properties pin down
//! literal-CNF soundness, containment soundness, and `find_iter` invariants.

mod oracle;

use oracle::oracle_is_match;
use proptest::prelude::*;
use rulekit_regex::ast::{Ast, ClassSet};
use rulekit_regex::{escape, parser, touch_subset, Containment, Regex};

// ---------------------------------------------------------------------------
// Pattern generator.
// ---------------------------------------------------------------------------

/// Random AST over a tiny alphabet, rendered to a pattern via `Display`.
fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        prop::sample::select(vec!['a', 'b', 'c', ' ']).prop_map(Ast::Literal),
        Just(Ast::AnyChar),
        Just(Ast::Class(ClassSet { ranges: vec![('a', 'b')], negated: false })),
        Just(Ast::Class(ClassSet { ranges: vec![('b', 'c')], negated: true })),
        Just(Ast::Empty),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::concat),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Ast::alternate),
            (inner.clone(), 0u32..3, 0u32..3, any::<bool>()).prop_map(|(a, min, extra, greedy)| {
                Ast::Repeat { inner: Box::new(a), min, max: Some(min + extra), greedy }
            }),
            (inner.clone(), any::<bool>()).prop_map(|(a, greedy)| Ast::Repeat {
                inner: Box::new(a),
                min: 0,
                max: None,
                greedy,
            }),
            inner.prop_map(|a| Ast::Group { index: Some(1), inner: Box::new(a) }),
        ]
    })
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c', 'd', ' ']), 0..12)
        .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The Pike VM agrees with the backtracking oracle on match existence.
    #[test]
    fn pikevm_agrees_with_oracle(ast in arb_ast(), text in arb_text()) {
        let pattern = ast.to_string();
        // Re-parse: Display output is the contract.
        let Ok(re) = Regex::new(&pattern) else {
            // Display must always produce a parseable pattern.
            panic!("display produced unparseable pattern: {pattern:?}");
        };
        let expected = oracle_is_match(&parser::parse(&pattern).unwrap(), &text, false);
        prop_assert_eq!(re.is_match(&text), expected, "pattern={:?} text={:?}", pattern, text);
    }

    /// `find` and `is_match` are consistent, and the reported span's text
    /// really is matched by the pattern.
    #[test]
    fn find_consistent_with_is_match(ast in arb_ast(), text in arb_text()) {
        let re = Regex::new(&ast.to_string()).unwrap();
        prop_assert_eq!(re.find(&text).is_some(), re.is_match(&text));
    }

    /// `find_iter` spans are ordered, non-overlapping, and in bounds.
    #[test]
    fn find_iter_spans_are_ordered(ast in arb_ast(), text in arb_text()) {
        let re = Regex::new(&ast.to_string()).unwrap();
        let mut last_end = 0usize;
        let mut last_start = None;
        for m in re.find_iter(&text).take(64) {
            prop_assert!(m.start() <= m.end());
            prop_assert!(m.end() <= text.len());
            if let Some(ls) = last_start {
                prop_assert!(m.start() >= ls);
            }
            prop_assert!(m.start() >= last_end || m.is_empty());
            last_end = m.end();
            last_start = Some(m.start());
        }
    }

    /// Escaped arbitrary strings match themselves, wherever they appear.
    #[test]
    fn escaped_literal_matches_itself(s in "[a-z .*?(){}\\[\\]|+^$\\\\]{0,10}", prefix in "[a-z ]{0,5}") {
        let re = Regex::new(&escape(&s)).unwrap();
        let hay = format!("{prefix}{s}");
        prop_assert!(re.is_match(&hay));
        if !s.is_empty() {
            let m = re.find(&hay).unwrap();
            prop_assert_eq!(m.as_str(), &s);
        }
    }

    /// Literal-CNF soundness: every match implies each disjunction is
    /// witnessed by a substring.
    #[test]
    fn literal_cnf_is_sound(ast in arb_ast(), text in arb_text()) {
        let re = Regex::case_insensitive(&ast.to_string()).unwrap();
        if re.is_match(&text) {
            let lowered = text.to_lowercase();
            for disjunction in re.required_literals() {
                prop_assert!(
                    disjunction.iter().any(|lit| lowered.contains(lit.as_str())),
                    "pattern {:?} matched {:?} but requirement {:?} unwitnessed",
                    re.pattern(), text, disjunction
                );
            }
        }
    }

    /// Containment soundness: a `Subset` verdict is never contradicted by a
    /// concrete text matched by `a` but not `b`.
    #[test]
    fn containment_is_sound(a in arb_ast(), b in arb_ast(), text in arb_text()) {
        let ra = Regex::new(&a.to_string()).unwrap();
        let rb = Regex::new(&b.to_string()).unwrap();
        let (pa, pb) = (parser::parse(ra.pattern()).unwrap(), parser::parse(rb.pattern()).unwrap());
        if touch_subset(&pa, &pb, false) == Containment::Subset && ra.is_match(&text) {
            prop_assert!(rb.is_match(&text), "a={:?} b={:?} text={:?}", ra.pattern(), rb.pattern(), text);
        }
    }

    /// NotSubset verdicts are also sound the other way: `Subset` holds
    /// whenever b's touch language is trivially universal (empty pattern).
    #[test]
    fn empty_pattern_subsumes_all(a in arb_ast()) {
        let ra = Regex::new(&a.to_string()).unwrap();
        let pa = parser::parse(ra.pattern()).unwrap();
        prop_assert_eq!(touch_subset(&pa, &parser::parse("").unwrap(), false), Containment::Subset);
    }

    /// Case-insensitive matching equals matching the lowercased text with a
    /// lowercased (ASCII) pattern, for plain literal patterns.
    #[test]
    fn case_insensitive_equals_lowered(s in "[a-zA-Z ]{1,8}", text in "[a-zA-Z ]{0,16}") {
        let ci = Regex::case_insensitive(&escape(&s)).unwrap();
        let lowered = Regex::new(&escape(&s.to_lowercase())).unwrap();
        prop_assert_eq!(ci.is_match(&text), lowered.is_match(&text.to_lowercase()));
    }
}
