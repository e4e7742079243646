//! Zero-allocation guard for the lazy DFA's steady state.
//!
//! The confirmation tier's speed claim rests on warm searches being pure
//! table walks: once the states a workload touches are cached, `is_match`
//! must not allocate — not for thread lists (the Pike VM's cost), not for
//! state keys, not per call. This test warms a set of rule-shaped patterns
//! on representative titles, then counts heap allocations across thousands
//! of repeat searches. Any future change that sneaks a per-search
//! allocation into the DFA path (or silently diverts these patterns to the
//! Pike VM) fails here, not in a profile.

mod common;

use std::sync::Arc;

use common::tally;
use rulekit_regex::nfa::{self, CompileOptions};
use rulekit_regex::{literals, parser, Regex};

/// Rule-shaped patterns: the qualifier.*head idiom, alternation groups,
/// optional plurals, a dictionary-ish disjunction, and anchors.
const PATTERNS: [&str; 5] = [
    "denim.*jeans?",
    "(motor|engine) oils?",
    "abrasive.*(wheels?|discs?)",
    "^wedding bands?$",
    "(gold|silver|platinum) ring",
];

/// Mostly non-matching titles so every search scans to the end — the worst
/// (and common) case for a confirmation tier: candidate admitted by a
/// literal hit, rejected by the full pattern.
const TITLES: [&str; 6] = [
    "mens denim jacket distressed",
    "synthetic motor oil 5w-30",
    "angle grinder abrasive flap sanding",
    "wedding bands",
    "sterling silver earrings with gold accents",
    "braided area rug 5x7 indoor outdoor",
];

fn compile_all() -> Vec<Regex> {
    PATTERNS.iter().map(|p| Regex::case_insensitive(p).expect(p)).collect()
}

/// Populates every DFA state this workload can touch, and lets each regex's
/// cache pool settle (the first search allocates its cache).
fn warm(regexes: &[Regex]) {
    for re in regexes {
        for t in &TITLES {
            std::hint::black_box(re.is_match(t));
        }
        assert!(
            re.try_match_dfa(TITLES[0]).is_some(),
            "pattern {:?} fell off the DFA path; the guard would test the wrong engine",
            re.pattern()
        );
    }
}

#[test]
fn warm_dfa_searches_are_allocation_free() {
    let regexes = compile_all();
    warm(&regexes);
    let (tally, ()) = tally(|| {
        for _ in 0..2_000 {
            for re in &regexes {
                for t in &TITLES {
                    std::hint::black_box(re.is_match(std::hint::black_box(t)));
                }
            }
        }
    });
    assert_eq!(tally.allocs, 0, "warm DFA searches allocated {} times", tally.allocs);
}

/// Footprint guard: at rule-set scale the per-regex cost *is* the server's
/// memory (50k rules × this number), so the layout's size is pinned like its
/// speed is.
///
/// * A regex that was never searched owns no DFA at all — only the empty
///   cell its clones share.
/// * DFA static part + warm cache, averaged over this file's patterns warmed
///   on its titles: **1,178 B** with the merged-class / 16-bit / one-arena
///   layout. The layout it replaced (interval classes, 32-bit words, boxed
///   keys plus a `HashMap` copy of each, closure scratch in every cache)
///   measured **4,626 B** on the same set (901 B built with the regex +
///   3,725 B on warming), and ≈ 11.5 KB per regex on the benchmark's
///   50k-rule set, whose patterns are longer.
#[test]
fn dfa_footprint_stays_small_and_cold_regexes_have_none() {
    /// ≤ 1.3 × the measured average above.
    const WARM_LIMIT: i64 = 1_500;
    /// `Arc<OnceLock<Option<Box<LazyDfa>>>>` (two counts and the cell, 32 B)
    /// plus the handle's own extra fields in the vector that holds it.
    const COLD_CELL_LIMIT: i64 = 64;

    // The closure scratch is one per thread; let an unrelated (and longer)
    // pattern size it so it is not billed to the patterns below.
    let sizer = Regex::case_insensitive("(closure|traversal) scratch.*(stacks?|buffers?) sized$");
    assert!(sizer.unwrap().is_match("closure scratch buffers sized"));

    let n = PATTERNS.len() as i64;
    // What a regex needs anyway: pattern text with its packed literal CNF,
    // and NFA program (the AST is dropped once compiled).
    let asts: Vec<_> = PATTERNS.iter().map(|p| parser::parse(p).unwrap()).collect();
    let (parts, _keep) = tally(|| {
        PATTERNS
            .iter()
            .zip(&asts)
            .map(|(p, ast)| {
                let program = nfa::compile(ast, CompileOptions { case_insensitive: true }).unwrap();
                let mut text = p.to_string();
                literals::pack(&literals::literal_cnf(ast, true), &mut text);
                (Arc::<str>::from(text), Arc::new(program))
            })
            .collect::<Vec<_>>()
    });
    let (cold, regexes) = tally(compile_all);
    let cell = (cold.live_bytes - parts.live_bytes) / n;
    assert!(
        (0..=COLD_CELL_LIMIT).contains(&cell),
        "a cold regex holds {cell} B beyond its text and program"
    );

    let (warmed, ()) = tally(|| warm(&regexes));
    let per_regex = warmed.live_bytes / n;
    assert!(
        per_regex <= WARM_LIMIT,
        "DFA static part + warm cache average {per_regex} B per regex (limit {WARM_LIMIT})"
    );
}
