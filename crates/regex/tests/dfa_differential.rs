//! Differential suite for the lazy-DFA confirmation tier: on every input
//! the DFA either returns exactly the Pike VM's verdict or declines
//! (`None`) and the engine falls back — it must never *disagree*.
//!
//! `Regex::find` never routes through the DFA (span extraction is the Pike
//! VM's job), so `find(text).is_some()` is an independent oracle for the
//! same compiled program. The generators deliberately cover the DFA's hard
//! cases: anchors at both ends, non-ASCII characters (multi-byte classes
//! and equivalence-class boundaries), empty patterns/texts, and nested
//! repetition that blows up determinization state counts — and the compact
//! layout's own edges: classes that reach either end of the code space,
//! alphabets whose boundary intervals outnumber their merged classes, and
//! state budgets beyond what a 16-bit transition word can address.

use proptest::prelude::*;
use rulekit_regex::ast::{Ast, ClassSet};
use rulekit_regex::dfa::LazyDfa;
use rulekit_regex::nfa::{self, CompileOptions, Inst, Program};
use rulekit_regex::{parser, Options, Regex};
use std::sync::{Arc, Barrier};

/// Random AST over a small alphabet salted with non-ASCII, rendered to a
/// pattern via `Display` (the same contract the Pike VM property suite
/// uses).
fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        prop::sample::select(vec!['a', 'b', 'c', ' ', 'é', 'ß']).prop_map(Ast::Literal),
        Just(Ast::AnyChar),
        Just(Ast::Class(ClassSet { ranges: vec![('a', 'c')], negated: false })),
        Just(Ast::Class(ClassSet { ranges: vec![('b', 'c')], negated: true })),
        Just(Ast::Class(ClassSet { ranges: vec![('a', 'b'), ('é', 'é')], negated: false })),
        // Negated classes that resolve to a set starting at `'\0'` (whose
        // first boundary interval would be empty) or ending at `char::MAX`
        // (whose last range has no successor boundary).
        Just(Ast::Class(ClassSet { ranges: vec![('c', char::MAX)], negated: true })),
        Just(Ast::Class(ClassSet { ranges: vec![('\0', 'a')], negated: true })),
        Just(Ast::Class(ClassSet { ranges: vec![('\0', '\0'), ('ß', 'ß')], negated: false })),
        Just(Ast::StartAnchor),
        Just(Ast::EndAnchor),
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
    prop::collection::vec(
        prop::sample::select(vec!['a', 'b', 'c', 'd', ' ', 'é', 'ß', '☃', '\n', '\0', char::MAX]),
        0..16,
    )
    .prop_map(|v| v.into_iter().collect())
}

/// Asserts the three-way agreement for one compiled regex and text.
fn check(re: &Regex, text: &str) -> Result<(), TestCaseError> {
    let vm = re.find(text).is_some();
    if let Some(dfa) = re.try_match_dfa(text) {
        prop_assert_eq!(
            dfa,
            vm,
            "DFA disagrees with Pike VM: pattern={:?} text={:?}",
            re.pattern(),
            text
        );
    }
    // The public entry point routes through the literal-sequence search or
    // the DFA and must land on the same verdict whichever answered.
    prop_assert_eq!(
        re.is_match(text),
        vm,
        "is_match diverged: pattern={:?} text={:?}",
        re.pattern(),
        text
    );
    Ok(())
}

/// Characters around everything the class merge can get wrong: both sides
/// of every range boundary of `program`, plus the fixed edges.
fn probe_chars(program: &Program) -> Vec<char> {
    let mut out = vec!['\0', '\t', '\n', '\u{b}', ' ', 'A', 'a', 'z', '\u{7f}', '\u{80}', 'é', '☃'];
    out.extend(['\u{d7ff}', '\u{e000}', char::MAX]);
    for inst in &program.insts {
        if let Inst::Ranges { start, len } = *inst {
            for &(lo, hi) in program.class(start, len) {
                for c in [lo, hi] {
                    out.push(c);
                    out.extend(char::from_u32((c as u32).wrapping_sub(1)));
                    out.extend(char::from_u32(c as u32 + 1));
                }
            }
        }
    }
    out
}

fn accepts(program: &Program, inst: &Inst, c: char) -> Option<bool> {
    match *inst {
        Inst::Ranges { start, len } => {
            Some(program.class(start, len).iter().any(|&(lo, hi)| lo <= c && c <= hi))
        }
        Inst::Any => Some(c != '\n'),
        _ => None,
    }
}

/// The merge is exact: whatever class `c` lands in, every consuming
/// instruction of the program gives `c` and that class's representative the
/// same verdict — so stepping the DFA on the representative is stepping it
/// on `c`.
fn check_classes(program: Program) -> Result<(), TestCaseError> {
    let program = Arc::new(program);
    let Some(dfa) = LazyDfa::new(program.clone()) else { return Ok(()) };
    for c in probe_chars(&program) {
        let class = dfa.class_of(c);
        prop_assert!(class < dfa.class_count());
        let repr = dfa.class_representative(class);
        prop_assert_eq!(dfa.class_of(repr), class, "representative {:?} left its class", repr);
        for inst in &program.insts {
            prop_assert_eq!(
                accepts(&program, inst, c),
                accepts(&program, inst, repr),
                "{:?} tells {:?} from its representative {:?}",
                inst,
                c,
                repr
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Class merge is exact on generated programs, both case modes.
    #[test]
    fn every_instruction_agrees_on_a_char_and_its_class_representative(
        ast in arb_ast(),
        case_insensitive in any::<bool>(),
    ) {
        check_classes(nfa::compile(&ast, CompileOptions { case_insensitive }).unwrap())?;
    }

    /// DFA ≡ Pike VM on arbitrary generated patterns and texts.
    #[test]
    fn dfa_agrees_with_pikevm(ast in arb_ast(), text in arb_text()) {
        let pattern = ast.to_string();
        let re = Regex::new(&pattern).unwrap_or_else(|e| {
            panic!("display produced unparseable pattern {pattern:?}: {e:?}")
        });
        check(&re, &text)?;
    }

    /// Same agreement under case-insensitive compilation (the mode every
    /// title rule uses), which doubles literal classes and exercises
    /// equivalence-class splitting.
    #[test]
    fn dfa_agrees_case_insensitive(ast in arb_ast(), text in arb_text(), upper in any::<bool>()) {
        let pattern = ast.to_string();
        let re = Regex::case_insensitive(&pattern).unwrap();
        let text = if upper { text.to_uppercase() } else { text };
        check(&re, &text)?;
    }

    /// Explicitly anchored patterns: `^…$`, `^…`, and `…$` shapes resolve
    /// assertions in the DFA's start-state closure and EOI handling.
    #[test]
    fn dfa_agrees_on_anchored_shapes(
        ast in arb_ast(),
        text in arb_text(),
        head in any::<bool>(),
        tail in any::<bool>(),
    ) {
        let mut pattern = ast.to_string();
        if head {
            pattern = format!("^{pattern}");
        }
        if tail {
            pattern = format!("{pattern}$");
        }
        let Ok(re) = Regex::with_options(&pattern, Options::default()) else {
            return Ok(()); // ^/$ injection can produce shapes Display never emits
        };
        check(&re, &text)?;
    }
}

/// Deterministic adversarial sweep: patterns chosen to thrash the bounded
/// state cache (exponential determinization) against aperiodic
/// pseudo-random texts, including non-ASCII. Correctness must survive
/// eviction, fallback, and the hostile-pattern disable switch.
#[test]
fn adversarial_patterns_agree_on_aperiodic_texts() {
    let patterns = [
        "[ab]*a[ab][ab][ab][ab][ab][ab][ab][ab]$",
        "(a|ab)*c",
        "(?:a*b*)*c",
        "[^x]*éß[^x]*",
        "^(a|b|ab)*$",
        "(ab|ba)*(a|b)?$",
    ];
    let alphabet = ['a', 'b', 'c', 'x', 'é', 'ß'];
    for pattern in patterns {
        let re = Regex::new(pattern).expect(pattern);
        let mut state = 0x2545f4914f6cdd1du64;
        for round in 0..48 {
            let len = (round * 7) % 200;
            let text: String = (0..len)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    alphabet[(state >> 33) as usize % alphabet.len()]
                })
                .collect();
            let vm = re.find(&text).is_some();
            if let Some(dfa) = re.try_match_dfa(&text) {
                assert_eq!(dfa, vm, "pattern={pattern:?} text={text:?}");
            }
            assert_eq!(re.is_match(&text), vm, "pattern={pattern:?} text={text:?}");
        }
    }
}

/// 70 distinct, pairwise non-adjacent characters cut the code space into
/// 141 boundary intervals — past the 128-column cap — but only 71 classes
/// behave differently. The interval-per-class layout declined such patterns
/// to the Pike VM; the merged alphabet serves them, with the same answers.
#[test]
fn many_intervals_few_classes_stays_on_the_dfa() {
    let letters: String = (0..70).map(|i| char::from_u32(0x100 + 2 * i).unwrap()).collect();
    let re = Regex::new(&letters).unwrap();
    let program = nfa::compile(&parser::parse(&letters).unwrap(), CompileOptions::default());
    let dfa = LazyDfa::new(Arc::new(program.unwrap())).expect("merged alphabet fits");
    assert_eq!(dfa.class_count(), 71);

    let shifted: String = letters.chars().map(|c| char::from_u32(c as u32 + 1).unwrap()).collect();
    for text in [
        letters.clone(),
        format!("xx{letters}yy"),
        letters[..letters.len() - 2].to_string(),
        shifted,
        String::new(),
    ] {
        let vm = re.find(&text).is_some();
        assert_eq!(re.try_match_dfa(&text), Some(vm), "text={text:?}");
    }
}

/// A budget beyond the 16-bit range is clamped, and with the clamp in place
/// a subset-explosion pattern runs out of budget and falls back (or answers
/// correctly) instead of wrapping a state id into the flag bit.
#[test]
fn oversized_budget_is_clamped_and_explosion_still_falls_back() {
    let compile = |p: &str| {
        Arc::new(nfa::compile(&parser::parse(p).unwrap(), CompileOptions::default()).unwrap())
    };
    let dfa = LazyDfa::with_budget(compile("a"), usize::MAX).unwrap();
    assert!(dfa.state_budget() < 1 << 15);
    assert_eq!(
        LazyDfa::with_budget(compile("a"), 1 << 20).unwrap().state_budget(),
        dfa.state_budget()
    );

    // ~2^17 reachable subsets: more than any 16-bit budget holds.
    let pattern = "[ab]*a[ab]{17}$";
    let program = compile(pattern);
    let dfa = LazyDfa::with_budget(program, usize::MAX).unwrap();
    let re = Regex::new(pattern).unwrap();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut fell_back = false;
    for _ in 0..3 {
        let text: String = (0..150_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if state >> 63 == 0 {
                    'a'
                } else {
                    'b'
                }
            })
            .collect();
        match dfa.is_match(&text) {
            Some(verdict) => assert_eq!(verdict, re.find(&text).is_some()),
            None => fell_back = true,
        }
    }
    assert!(fell_back, "a 2^17-subset pattern cannot fit a clamped budget");
    assert!(dfa.fallback_count() >= 1);
}

/// Cloned regexes share one lazy DFA, and so one search state: threads that
/// search the same patterns at once must still each get the Pike VM's
/// verdict. Beside the clones, the threads share one DFA with a floor-sized
/// budget, so clears and fallbacks happen while others search it too.
#[test]
fn shared_dfa_agrees_across_threads() {
    const ADVERSARIAL: [&str; 6] = [
        "[ab]*a[ab][ab][ab][ab][ab][ab][ab][ab]$",
        "(a|ab)*c",
        "(?:a*b*)*c",
        "[^x]*éß[^x]*",
        "^(a|b|ab)*$",
        "(ab|ba)*(a|b)?$",
    ];
    // The rule shapes `tests/dfa_alloc.rs` pins the footprint of.
    let mut regexes: Vec<Regex> = [
        "denim.*jeans?",
        "(motor|engine) oils?",
        "abrasive.*(wheels?|discs?)",
        "^wedding bands?$",
        "(gold|silver|platinum) ring",
    ]
    .iter()
    .map(|p| Regex::case_insensitive(p).unwrap())
    .collect();
    regexes.extend(ADVERSARIAL.iter().map(|p| Regex::new(p).unwrap()));

    let thrasher = Regex::new(ADVERSARIAL[0]).unwrap();
    let program = nfa::compile(&parser::parse(ADVERSARIAL[0]).unwrap(), CompileOptions::default());
    let tiny = LazyDfa::with_budget(Arc::new(program.unwrap()), 8).unwrap();

    let tokens = [
        "a",
        "b",
        "ab",
        "ba",
        "c",
        "x",
        "é",
        "ß",
        " ",
        "Denim ",
        "jeans",
        "motor ",
        "oil",
        "wheels",
        "abrasive ",
        "Wedding bands",
        "gold ",
        "ring",
    ];
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for seed in 1..=4u64 {
            let (regexes, thrasher, tiny, start) = (regexes.clone(), &thrasher, &tiny, &start);
            s.spawn(move || {
                start.wait();
                let mut state = 0x2545f4914f6cdd1du64.wrapping_mul(seed);
                for _ in 0..300 {
                    let mut next = || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) as usize
                    };
                    let len = next() % 60;
                    let text: String = (0..len).map(|_| tokens[next() % tokens.len()]).collect();
                    for re in &regexes {
                        let vm = re.find(&text).is_some();
                        if let Some(dfa) = re.try_match_dfa(&text) {
                            assert_eq!(dfa, vm, "pattern={:?} text={text:?}", re.pattern());
                        }
                        assert_eq!(
                            re.is_match(&text),
                            vm,
                            "pattern={:?} text={text:?}",
                            re.pattern()
                        );
                    }
                    if let Some(dfa) = tiny.is_match(&text) {
                        assert_eq!(dfa, thrasher.find(&text).is_some(), "budget 8, text={text:?}");
                    }
                }
                // Whether the token texts thrash depends on the cache state
                // the other threads leave behind; 256 aperiodic `a`/`b`
                // characters overflow a budget-8 cache from any state.
                let text: String = (0..256)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if state >> 63 == 0 {
                            'a'
                        } else {
                            'b'
                        }
                    })
                    .collect();
                if let Some(dfa) = tiny.is_match(&text) {
                    assert_eq!(dfa, thrasher.find(&text).is_some(), "budget 8, text={text:?}");
                }
            });
        }
    });
    assert!(tiny.fallback_count() >= 1, "budget 8 must thrash on these texts");
}
