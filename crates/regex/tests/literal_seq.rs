//! Exactness suite for literal sequences: patterns whose `is_match` is a
//! substring search over packed pieces instead of a DFA walk.
//!
//! Every generated pattern is a literal sequence (the probe says so) and
//! its substring answer must equal both the Pike VM's (`find`, which always
//! runs the compiled program) and the AST oracle's. The generators aim at
//! the search's edges: upper case and non-ASCII in pieces and texts (`é`,
//! `ß`, `İ` and the Kelvin sign `K` fold nowhere: case folding is ASCII
//! only), optional parts mid-pattern, empty alternatives, lazy gaps, and
//! texts split by `\n`, which no gap crosses.

mod oracle;

use oracle::oracle_is_match;
use proptest::prelude::*;
use rulekit_regex::ast::Ast;
use rulekit_regex::seq::{MAX_ALTERNATIVES, MAX_PIECE};
use rulekit_regex::{escape, parser, Options, Regex};

/// Characters pieces and texts are made of: a few ASCII letters in both
/// cases, a space, and non-ASCII that ASCII folding must leave alone.
const ALPHABET: [char; 12] = ['a', 'b', 'k', 'A', 'B', 'K', ' ', 'é', 'É', 'ß', 'İ', '\u{212A}'];

fn arb_piece() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(ALPHABET.to_vec()), 1..4)
        .prop_map(|v| v.into_iter().collect())
}

fn literal(piece: &str) -> Ast {
    Ast::concat(piece.chars().map(Ast::Literal).collect())
}

fn group(inner: Ast) -> Ast {
    Ast::Group { index: Some(1), inner: Box::new(inner) }
}

/// `Some` half of the time.
fn maybe<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, value)| some.then_some(value))
}

/// One run between gaps: a piece, then optionally an alternation of up to
/// four arms (one in five empty), a middle piece, and a piece repeated `?`
/// or `{0,2}` — at most 4 × 3 alternatives, within the 16 allowed.
fn arb_run() -> impl Strategy<Value = Ast> {
    let arm = (0..5usize, arb_piece())
        .prop_map(|(k, piece)| if k == 0 { Ast::Empty } else { literal(&piece) });
    (
        arb_piece(),
        maybe(prop::collection::vec(arm, 1..5)),
        maybe(arb_piece()),
        maybe((arb_piece(), 1u32..3, any::<bool>())),
    )
        .prop_map(|(head, alternation, middle, repeat)| {
            let mut parts = vec![literal(&head)];
            if let Some(arms) = alternation {
                parts.push(group(Ast::alternate(arms)));
            }
            if let Some(middle) = middle {
                parts.push(literal(&middle));
            }
            if let Some((piece, max, greedy)) = repeat {
                let inner = Box::new(group(literal(&piece)));
                parts.push(Ast::Repeat { inner, min: 0, max: Some(max), greedy });
            }
            Ast::concat(parts)
        })
}

/// One to four runs joined by `.*` or `.*?`.
fn arb_sequence() -> impl Strategy<Value = Ast> {
    (arb_run(), prop::collection::vec((any::<bool>(), arb_run()), 0..4)).prop_map(
        |(first, rest)| {
            let mut parts = vec![first];
            for (greedy, run) in rest {
                parts.push(Ast::Repeat {
                    inner: Box::new(Ast::AnyChar),
                    min: 0,
                    max: None,
                    greedy,
                });
                parts.push(run);
            }
            Ast::concat(parts)
        },
    )
}

/// Texts over the same alphabet plus `x` and `\n`, so that pieces occur,
/// in either case, on one line or split across two.
fn arb_texts() -> impl Strategy<Value = Vec<String>> {
    let mut chars = ALPHABET.to_vec();
    chars.extend(['x', '\n', 'a', 'b', ' ']);
    let text = prop::collection::vec(prop::sample::select(chars), 0..24)
        .prop_map(|v| v.into_iter().collect::<String>());
    prop::collection::vec(text, 1..8)
}

/// The three answers agree, and the substring answer built no engine.
fn check(pattern: &str, ci: bool, texts: &[String]) -> Result<(), TestCaseError> {
    let re = Regex::with_options(pattern, Options { case_insensitive: ci }).unwrap();
    prop_assert!(re.is_literal_sequence(), "{pattern:?} is not a literal sequence");
    let ast = parser::parse(pattern).unwrap();
    let verdicts: Vec<bool> = texts.iter().map(|t| re.is_match(t)).collect();
    prop_assert!(!re.has_program() && !re.has_dfa(), "{pattern:?} built an engine");
    for (text, verdict) in texts.iter().zip(verdicts) {
        let vm = re.find(text).is_some();
        prop_assert_eq!(verdict, vm, "pattern={:?} ci={} text={:?}", pattern, ci, text);
        let expected = oracle_is_match(&ast, text, ci);
        prop_assert_eq!(verdict, expected, "pattern={:?} ci={} text={:?}", pattern, ci, text);
    }
    Ok(())
}

/// E7's ten rule skeletons (`crates/bench/src/exp/execution.rs`), over
/// words `q[0..7]`, a head `h` and a brand `b`.
fn skeletons(q: &[String], h: &str, b: &str) -> [String; 10] {
    let e = &q[0];
    [
        format!("{e}.*{h}s?"),
        format!("{e}.*{}.*{h}s?", q[1]),
        format!("{b}.*{h}s?"),
        format!("({e}|{}) {h}s?", q[2]),
        format!("{e}.*{}.*{h}s?", q[3]),
        format!("{b}.*{e}.*{h}s?"),
        format!("({e}|{}|{}) {h}s?", q[1], q[4]),
        format!("{e} .*{h}s? .*{}", q[5]),
        format!("{}.*{}.*{h}s?", q[2], q[5]),
        format!("{b}.*({e}|{}).*{h}s?", q[6]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn generated_sequences_match_like_the_pike_vm_and_the_oracle(
        ast in arb_sequence(),
        ci in any::<bool>(),
        texts in arb_texts(),
    ) {
        check(&ast.to_string(), ci, &texts)?;
    }

    /// Rule-shaped patterns over random words, on titles stitched from the
    /// same words: matches are common, and so are near misses (a word out
    /// of order, on another line, or missing its plural `s`).
    #[test]
    fn rule_skeletons_match_like_the_pike_vm_and_the_oracle(
        words in prop::collection::vec(("[a-cé]{1,3}", maybe("[a-c]{1,2}")), 9),
        title_words in prop::collection::vec((0usize..9, 0usize..3, 0usize..5), 1..10),
        upper in any::<bool>(),
    ) {
        let words: Vec<String> = words
            .into_iter()
            .map(|(first, second)| match second {
                Some(second) => format!("{first} {second}"),
                None => first,
            })
            .collect();
        let escaped: Vec<String> = words.iter().map(|w| escape(w)).collect();
        let title: String = title_words
            .iter()
            .map(|&(i, plural, sep)| {
                format!("{}{}{}", words[i], ["", "s", "S"][plural], [" ", "\n", "x", "-", " -"][sep])
            })
            .collect();
        let titles = vec![title.to_uppercase(), title];
        let titles = if upper { titles } else { titles[1..].to_vec() };
        for pattern in skeletons(&escaped[..7], &escaped[7], &escaped[8]) {
            check(&pattern, true, &titles)?;
        }
    }
}

#[test]
fn the_probe_holds_for_sequences_and_nothing_else() {
    let arms = |n: usize| (0..n).map(|i| format!("w{i:02}")).collect::<Vec<_>>().join("|");
    let sequences = [
        String::new(),
        "rings?".into(),
        "laptop (bag|case|sleeve)s?".into(),
        "(earring|stud set)s?".into(),
        "denim.*?jeans{0,2}.*(|x)".into(),
        "Straße.*İ\u{212A}".into(),
        format!("({})", arms(MAX_ALTERNATIVES)),
        "a".repeat(MAX_PIECE),
    ];
    for pattern in &sequences {
        assert!(Regex::case_insensitive(pattern).unwrap().is_literal_sequence(), "{pattern:?}");
    }
    let others = [
        "^rings?".to_string(),
        "rings?$".into(),
        "[ -]rings?".into(),
        r"\d+ ?gb".into(),
        r"\w rings".into(),
        "rings+".into(),
        "ring.+box".into(),
        "ring.box".into(),
        "rings{3}".into(),
        "(ring.*box)".into(),
        "ring\nbox".into(),
        format!("({})", arms(MAX_ALTERNATIVES + 1)),
        "a".repeat(MAX_PIECE + 1),
    ];
    for pattern in &others {
        let re = Regex::case_insensitive(pattern).unwrap();
        assert!(!re.is_literal_sequence(), "{pattern:?}");
        assert!(re.has_program(), "{pattern:?} deferred a program it needs");
    }
}
